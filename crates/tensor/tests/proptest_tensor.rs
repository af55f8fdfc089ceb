//! Property-based tests for matrix operations and MX-quantised GEMM.

use dacapo_mx::{MxError, MxPrecision, MxVector};
use dacapo_tensor::{init, ops, quant, Matrix, TensorError, Workspace};
use proptest::prelude::*;

/// Small matrix dimensions keep the O(n^3) reference checks fast.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..12, 1usize..12, 1usize..12)
}

/// Dimensions whose reduction length straddles the packed kernel's K_BLOCK
/// (64) and the 16-element MX block, including non-multiples of both, and
/// whose output shape straddles the register-block tiles (I_TILE rows,
/// J_TILE and half-tile columns).
fn gemm_dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..10, 1usize..150, 1usize..80)
}

fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    init::uniform(rows, cols, -2.0, 2.0, seed).expect("positive dims")
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// The naive triple loop written out here, with the multiply–accumulate as
/// a parameter: what `ops::matmul_reference` must equal when `mac` is
/// [`fused`], and what it must not silently go back to ([`unfused`]).
fn naive_gemm(a: &Matrix, b: &Matrix, mac: fn(f32, f32, f32) -> f32) -> Matrix {
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        (0..a.cols()).fold(0.0, |acc, kk| mac(a[(i, kk)], b[(kk, j)], acc))
    })
    .expect("positive dims")
}

/// One rounding per multiply–accumulate: IEEE-754 `fusedMultiplyAdd`.
fn fused(x: f32, y: f32, acc: f32) -> f32 {
    x.mul_add(y, acc)
}

/// Two roundings: the product, then the sum.
fn unfused(x: f32, y: f32, acc: f32) -> f32 {
    acc + x * y
}

/// A zero (one draw in eight) or a value of magnitude in [1, 16), of either
/// sign: a few binades of spread inside an MX block, so most elements keep
/// mantissa bits after quantisation.
fn operand() -> impl Strategy<Value = f32> {
    prop_oneof![
        1 => Just(0.0f32),
        7 => (0i32..4, 1.0f32..2.0, 0u8..2).prop_map(|(exponent, mantissa, negative)| {
            let magnitude = mantissa * 2f32.powi(exponent);
            if negative == 1 { -magnitude } else { magnitude }
        }),
    ]
}

/// Any finite bit pattern a row operand may hold: a signed zero, a
/// subnormal, or a normal over sixty binades, so that the lanes of a block
/// mix magnitudes and some fall below the block's last mantissa bit.
fn element() -> impl Strategy<Value = f32> {
    let magnitude = prop_oneof![
        1 => Just(0u32),
        1 => 1u32..0x0080_0000,
        6 => 97u32 << 23..157u32 << 23,
    ];
    (magnitude, 0u32..2)
        .prop_map(|(magnitude, negative)| f32::from_bits(negative << 31 | magnitude))
}

/// `rows × cols` of `values`, scaled by `2^exponent` (exact).
fn scaled_matrix(rows: usize, cols: usize, values: &[f32], exponent: i32) -> Matrix {
    let scale = 2f32.powi(exponent);
    Matrix::from_vec(rows, cols, values[..rows * cols].iter().map(|v| v * scale).collect())
        .expect("positive dims")
}

/// Every GEMM entry point against the naive reference on shapes chosen
/// to hit every tile of the kernel — full, padded-full and half-width
/// column tiles, 4-row strips and single rows — on both sides of the
/// K_BLOCK (64) boundary, so the transposed-left kernels run with `rb > 0`
/// as any retraining batch over 64 rows does. One workspace and output serve
/// the whole sweep: nothing may leak between calls.
#[test]
fn every_gemm_entry_point_matches_the_reference_on_a_tile_boundary_sweep() {
    let mut ws = Workspace::new();
    let mut out = Matrix::identity(1);
    for k in [1, 16, 63, 64, 65, 128, 130] {
        for m in [1, 3, 4, 5, 8, 9] {
            for n in [1, 10, 16, 17, 31, 32, 33, 48, 49, 64, 70] {
                let shape = format!("m={m} k={k} n={n}");
                let a = matrix(m, k, (k * 1000 + m * 100 + n) as u64);
                let a_t = ops::transpose(&a);
                let b = matrix(k, n, (n * 1000 + k) as u64);
                let b_t = ops::transpose(&b);
                let reference = ops::matmul_reference(&a, &b).unwrap();
                ops::matmul_into(&a, &b, &mut out, &mut ws).unwrap();
                assert_eq!(bits(&out), bits(&reference), "matmul_into {shape}");
                ops::matmul_at_b(&a_t, &b, &mut out, &mut ws).unwrap();
                assert_eq!(bits(&out), bits(&reference), "matmul_at_b {shape}");
                ops::matmul_a_bt(&a, &b_t, &mut out, &mut ws).unwrap();
                assert_eq!(bits(&out), bits(&reference), "matmul_a_bt {shape}");
                for p in [MxPrecision::Mx4, MxPrecision::Mx6, MxPrecision::Mx9] {
                    let qa = quant::quantize_rows(&a, p).unwrap();
                    let qb = quant::quantize_cols(&b, p).unwrap();
                    let reference = ops::matmul_reference(&qa, &qb).unwrap();
                    quant::mx_matmul_into(&a, &b, p, &mut out, &mut ws).unwrap();
                    assert_eq!(bits(&out), bits(&reference), "mx_matmul_into {p:?} {shape}");
                    quant::mx_matmul_at_b_into(&a_t, &b, p, &mut out, &mut ws).unwrap();
                    assert_eq!(bits(&out), bits(&reference), "mx_matmul_at_b_into {p:?} {shape}");
                    quant::mx_matmul_a_bt_into(&a, &b_t, p, &mut out, &mut ws).unwrap();
                    assert_eq!(bits(&out), bits(&reference), "mx_matmul_a_bt_into {p:?} {shape}");
                }
            }
        }
    }
}

/// No GEMM clears its output: each must overwrite every element itself. A
/// larger output full of NaN — which any surviving or accumulated-onto
/// element would keep — gives what a fresh one gives, on either side of the
/// K_BLOCK boundary (one reduction block, and a first block followed by
/// accumulating ones) and for in-place and packed panels (n = 32, 64 vs the
/// rest).
#[test]
fn every_gemm_overwrites_a_larger_nan_filled_output() {
    type Gemm = fn(&Matrix, &Matrix, &Matrix, &Matrix, &mut Matrix, &mut Workspace);
    const MX: MxPrecision = MxPrecision::Mx9;
    // Each takes (a, aᵀ, b, bᵀ) and picks the operands it multiplies as a·b.
    let gemms: [(&str, Gemm); 6] = [
        ("matmul_into", |a, _, b, _, out, ws| ops::matmul_into(a, b, out, ws).unwrap()),
        ("matmul_at_b", |_, a_t, b, _, out, ws| ops::matmul_at_b(a_t, b, out, ws).unwrap()),
        ("matmul_a_bt", |a, _, _, b_t, out, ws| ops::matmul_a_bt(a, b_t, out, ws).unwrap()),
        ("mx_matmul_into", |a, _, b, _, out, ws| quant::mx_matmul_into(a, b, MX, out, ws).unwrap()),
        ("mx_matmul_at_b_into", |_, a_t, b, _, out, ws| {
            quant::mx_matmul_at_b_into(a_t, b, MX, out, ws).unwrap()
        }),
        ("mx_matmul_a_bt_into", |a, _, _, b_t, out, ws| {
            quant::mx_matmul_a_bt_into(a, b_t, MX, out, ws).unwrap()
        }),
    ];
    let mut ws = Workspace::new();
    for (m, k, n) in [(5, 7, 10), (4, 64, 32), (6, 70, 33), (9, 130, 64), (1, 65, 17)] {
        let (a, b) = (matrix(m, k, 41), matrix(k, n, 42));
        let (a_t, b_t) = (ops::transpose(&a), ops::transpose(&b));
        for (name, gemm) in gemms {
            let mut fresh = Matrix::identity(1);
            gemm(&a, &a_t, &b, &b_t, &mut fresh, &mut ws);
            let mut dirty = Matrix::filled(m + 3, n + 5, f32::NAN).unwrap();
            gemm(&a, &a_t, &b, &b_t, &mut dirty, &mut ws);
            assert_eq!(dirty.shape(), (m, n), "{name} m={m} k={k} n={n}");
            assert_eq!(bits(&dirty), bits(&fresh), "{name} m={m} k={k} n={n}");
        }
    }
}

/// The MX `A·Bᵀ` kernel quantises a transposed copy of `b`, yet a non-finite
/// element is reported where it sits in `b` — in the first reduction block
/// and in a later one.
#[test]
fn mx_a_bt_reports_a_non_finite_element_at_its_index_in_b() {
    let (n, k) = (5, 70);
    let a = matrix(3, k, 1);
    for (row, col) in [(0, 0), (3, 17), (4, 66), (2, 69)] {
        let mut b = matrix(n, k, 2);
        b[(row, col)] = f32::NEG_INFINITY;
        let err = quant::mx_matmul_a_bt_into(
            &a,
            &b,
            MxPrecision::Mx6,
            &mut Matrix::identity(1),
            &mut Workspace::new(),
        )
        .unwrap_err();
        let expected = MxError::NonFiniteInput { index: row * k + col, value: f32::NEG_INFINITY };
        assert_eq!(err, TensorError::Quantization(expected), "b[({row}, {col})]");
    }
}

/// The multiply–accumulate of the reference and of the kernel is the fused
/// one. With `k = 2`, `−(1 + 2⁻¹¹)·1` and then `(1 + 2⁻¹²)²`: the square is
/// `1 + 2⁻¹¹ + 2⁻²⁴`, which the fused form adds unrounded, leaving `2⁻²⁴`;
/// rounded to `f32` first it is `1 + 2⁻¹¹` (a tie, to even) and the sum is
/// `0`. A revert to `acc += a * b` in either place fails here.
#[test]
fn the_gemm_accumulates_with_one_rounding_per_product() {
    let (x, y) = (1.0 + 2f32.powi(-11), 1.0 + 2f32.powi(-12));
    let a = Matrix::from_rows(&[&[-x, y]]).unwrap();
    let b = Matrix::from_rows(&[&[1.0], &[y]]).unwrap();
    assert_eq!(naive_gemm(&a, &b, fused)[(0, 0)], 2f32.powi(-24));
    assert_eq!(naive_gemm(&a, &b, unfused)[(0, 0)], 0.0);
    assert_eq!(ops::matmul_reference(&a, &b).unwrap()[(0, 0)], 2f32.powi(-24));
    let (mut out, mut ws) = (Matrix::identity(1), Workspace::new());
    ops::matmul_into(&a, &b, &mut out, &mut ws).unwrap();
    assert_eq!(out[(0, 0)], 2f32.powi(-24), "matmul_into");
    ops::matmul_at_b(&ops::transpose(&a), &b, &mut out, &mut ws).unwrap();
    assert_eq!(out[(0, 0)], 2f32.powi(-24), "matmul_at_b");
    ops::matmul_a_bt(&a, &ops::transpose(&b), &mut out, &mut ws).unwrap();
    assert_eq!(out[(0, 0)], 2f32.powi(-24), "matmul_a_bt");
}

/// `f32::mul_add` is one instruction only where the build targets hardware
/// FMA; elsewhere it is a libm call per multiply–accumulate — still the
/// same bits, an order of magnitude slower.
#[cfg(target_arch = "x86_64")]
#[test]
#[expect(
    clippy::assertions_on_constants,
    reason = "a property of the build, reported as a test failure with instructions rather \
              than as a compile error that takes the file's other tests with it"
)]
fn the_build_targets_hardware_fma() {
    assert!(
        cfg!(target_feature = "fma"),
        "built without the `fma` target feature: run cargo from the repository root so that \
         the x86_64 target table of .cargo/config.toml (target-cpu=native) applies, on a host \
         that has FMA"
    );
}

proptest! {
    /// (A·B)·C == A·(B·C) within floating point tolerance.
    #[test]
    fn matmul_is_associative((m, k, n) in dims(), p in 1usize..8, seed in 0u64..1000) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed.wrapping_add(1));
        let c = matrix(n, p, seed.wrapping_add(2));
        let left = ops::matmul(&ops::matmul(&a, &b).unwrap(), &c).unwrap();
        let right = ops::matmul(&a, &ops::matmul(&b, &c).unwrap()).unwrap();
        let diff = ops::frobenius_norm(&ops::sub(&left, &right).unwrap());
        let scale = ops::frobenius_norm(&left).max(1.0);
        prop_assert!(diff / scale < 1e-4);
    }

    /// Multiplying by the identity changes nothing.
    #[test]
    fn identity_is_neutral((m, k, _) in dims(), seed in 0u64..1000) {
        let a = matrix(m, k, seed);
        let out = ops::matmul(&a, &Matrix::identity(k)).unwrap();
        prop_assert_eq!(out, a);
    }

    /// transpose(A·B) == transpose(B)·transpose(A).
    #[test]
    fn transpose_reverses_products((m, k, n) in dims(), seed in 0u64..1000) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed.wrapping_add(7));
        let left = ops::transpose(&ops::matmul(&a, &b).unwrap());
        let right = ops::matmul(&ops::transpose(&b), &ops::transpose(&a)).unwrap();
        let diff = ops::frobenius_norm(&ops::sub(&left, &right).unwrap());
        prop_assert!(diff < 1e-3);
    }

    /// Softmax rows always sum to one and stay in [0, 1].
    #[test]
    fn softmax_is_a_distribution((m, k, _) in dims(), seed in 0u64..1000) {
        let a = matrix(m, k, seed);
        let s = ops::softmax_rows(&a);
        for row in s.iter_rows() {
            let total: f32 = row.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        }
    }

    /// argmax of the softmax equals argmax of the logits.
    #[test]
    fn softmax_preserves_argmax((m, k, _) in dims(), seed in 0u64..1000) {
        let a = matrix(m, k, seed);
        prop_assert_eq!(ops::argmax_rows(&a), ops::argmax_rows(&ops::softmax_rows(&a)));
    }

    /// MX-quantised GEMM error broadly shrinks as precision rises (allowing a
    /// small slack because cancellation in tiny GEMMs can make a coarse
    /// quantisation coincidentally accurate), and MX9 stays within a small
    /// relative error.
    #[test]
    fn mx_gemm_error_ordering((m, k, n) in dims(), seed in 0u64..1000) {
        let a = matrix(m, k.max(4), seed);
        let b = matrix(k.max(4), n, seed.wrapping_add(3));
        let e9 = quant::mx_matmul_relative_error(&a, &b, MxPrecision::Mx9).unwrap();
        let e6 = quant::mx_matmul_relative_error(&a, &b, MxPrecision::Mx6).unwrap();
        let e4 = quant::mx_matmul_relative_error(&a, &b, MxPrecision::Mx4).unwrap();
        prop_assert!(e9 <= e6 + 0.02, "e9 {} e6 {}", e9, e6);
        prop_assert!(e6 <= e4 + 0.10, "e6 {} e4 {}", e6, e4);
        prop_assert!(e9 < 0.05, "MX9 error too large: {}", e9);
    }

    /// Quantising rows never changes the matrix shape and keeps every value
    /// within the block-max error bound.
    #[test]
    fn quantize_rows_bounded((m, k, _) in dims(), seed in 0u64..1000) {
        let a = matrix(m, k, seed);
        for precision in [MxPrecision::Mx4, MxPrecision::Mx6, MxPrecision::Mx9] {
            let q = quant::quantize_rows(&a, precision).unwrap();
            prop_assert_eq!(q.shape(), a.shape());
            for (row_a, row_q) in a.iter_rows().zip(q.iter_rows()) {
                let row_max = row_a.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
                let bound = row_max * precision.mantissa_ulp() + 1e-6;
                for (x, y) in row_a.iter().zip(row_q) {
                    prop_assert!((x - y).abs() <= bound);
                }
            }
        }
    }

    /// Row quantisation — the whole matrix as one run of blocks when the
    /// width is a multiple of the MX block, staged blocks with each row's
    /// last one zero-padded otherwise — is `MxVector::quantize_into` of each
    /// row on its own, at every width from 1 to 40 and every height from 1 to
    /// 20 (so every count of staged blocks modulo a run), and at a block and
    /// the kernel's chunk (16, 64) wide.
    #[test]
    fn row_quantisation_is_mx_vector_quantize_row_by_row(
        values in prop::collection::vec(element(), 40 * 64),
    ) {
        let mut out = Matrix::identity(1);
        for rows in (1..=20).chain([40]) {
            for cols in (1..=40).chain([48, 64]) {
                let a = Matrix::from_vec(rows, cols, values[..rows * cols].to_vec()).unwrap();
                for precision in MxPrecision::ALL {
                    quant::quantize_rows_into(&a, precision, &mut out).unwrap();
                    prop_assert_eq!(out.shape(), a.shape());
                    let mut expected = vec![f32::NAN; a.len()];
                    for (row, quantised) in a.iter_rows().zip(expected.chunks_mut(cols)) {
                        MxVector::quantize_into(row, precision, quantised).unwrap();
                    }
                    let expected = Matrix::from_vec(rows, cols, expected).unwrap();
                    prop_assert_eq!(bits(&out), bits(&expected), "{}x{} {:?}", rows, cols, precision);
                }
            }
        }
    }

    /// Down the columns, at every width from 1 to 40 and odd heights — a last
    /// row alone in its subgroup, a last block short, both — the whole-matrix
    /// form is transposing, quantising rows and transposing back. Widths 47
    /// and 63 are one ragged column group, staged at 48 and 64 lanes; 65, 74
    /// and 80 add a second group after a whole 64-lane one, ragged but for 80.
    #[test]
    fn column_quantisation_is_transposed_rows_at_every_narrow_width(
        values in prop::collection::vec(element(), 33 * 80),
    ) {
        for rows in [1, 3, 15, 17, 33] {
            for cols in (1..=40).chain([47, 63, 65, 74, 80]) {
                let b = Matrix::from_vec(rows, cols, values[..rows * cols].to_vec()).unwrap();
                for precision in MxPrecision::ALL {
                    let via_rows = ops::transpose(&quant::quantize_rows(&ops::transpose(&b), precision).unwrap());
                    let via_cols = quant::quantize_cols(&b, precision).unwrap();
                    prop_assert_eq!(bits(&via_cols), bits(&via_rows), "{}x{} {:?}", rows, cols, precision);
                }
            }
        }
    }

    /// The packed, blocked GEMM is bit-identical to the naive triple loop,
    /// including shapes that are not multiples of the tile size, and the
    /// workspace carries no state between calls of different shapes.
    #[test]
    fn packed_gemm_is_bit_identical_to_reference((m, k, n) in gemm_dims(), seed in 0u64..1000) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed.wrapping_add(5));
        let reference = ops::matmul_reference(&a, &b).unwrap();
        prop_assert_eq!(&ops::matmul(&a, &b).unwrap(), &reference);
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(1, 1).unwrap();
        ops::matmul_into(&a, &b, &mut out, &mut ws).unwrap();
        prop_assert_eq!(&out, &reference);
        // Reuse the same workspace/output at a different shape, then again at
        // the original shape: leftover contents must not leak into results.
        let c = matrix(n, m.min(3), seed.wrapping_add(9));
        ops::matmul_into(&b, &c, &mut out, &mut ws).unwrap();
        ops::matmul_into(&a, &b, &mut out, &mut ws).unwrap();
        prop_assert_eq!(&out, &reference);
    }

    /// `matmul_reference` is the naive loop with the fused
    /// multiply–accumulate, bit for bit.
    #[test]
    fn reference_gemm_is_the_scalar_fused_loop((m, k, n) in gemm_dims(), seed in 0u64..1000) {
        let a = matrix(m, k, seed);
        let b = matrix(k, n, seed.wrapping_add(5));
        prop_assert_eq!(bits(&ops::matmul_reference(&a, &b).unwrap()), bits(&naive_gemm(&a, &b, fused)));
    }

    /// Fusing the accumulate moved no bit of the paper's MX arithmetic: the
    /// product of two MX-quantised values (mantissa codes of at most 7 bits)
    /// is exact in `f32`, so the fused sum rounds what the unfused one
    /// rounds. All three MX GEMMs equal the *unfused* naive accumulate over
    /// the quantised operands, for operands that are zero or of magnitude in
    /// [2⁻⁴⁰, 2⁴⁰) — the bound is product underflow, which these stay clear
    /// of.
    #[test]
    fn mx_gemms_equal_the_unfused_accumulate_over_quantised_operands(
        (m, k, n) in gemm_dims(),
        a_values in prop::collection::vec(operand(), 9 * 149),
        b_values in prop::collection::vec(operand(), 149 * 79),
        (a_exponent, b_exponent) in (-40i32..37, -40i32..37),
    ) {
        let a = scaled_matrix(m, k, &a_values, a_exponent);
        let b = scaled_matrix(k, n, &b_values, b_exponent);
        let (a_t, b_t) = (ops::transpose(&a), ops::transpose(&b));
        let mut ws = Workspace::new();
        let mut out = Matrix::identity(1);
        for p in [MxPrecision::Mx4, MxPrecision::Mx6, MxPrecision::Mx9] {
            let qa = quant::quantize_rows(&a, p).unwrap();
            let qb = quant::quantize_cols(&b, p).unwrap();
            let reference = bits(&naive_gemm(&qa, &qb, unfused));
            quant::mx_matmul_into(&a, &b, p, &mut out, &mut ws).unwrap();
            prop_assert_eq!(&bits(&out), &reference, "mx_matmul_into {:?}", p);
            quant::mx_matmul_at_b_into(&a_t, &b, p, &mut out, &mut ws).unwrap();
            prop_assert_eq!(&bits(&out), &reference, "mx_matmul_at_b_into {:?}", p);
            quant::mx_matmul_a_bt_into(&a, &b_t, p, &mut out, &mut ws).unwrap();
            prop_assert_eq!(&bits(&out), &reference, "mx_matmul_a_bt_into {:?}", p);
        }
    }

    /// Quantising down the columns is bit-identical to transposing,
    /// quantising rows and transposing back, for column lengths past 64 and
    /// off the 16-element MX block.
    #[test]
    fn column_quantisation_is_bit_identical_to_transposed_rows((_, k, n) in gemm_dims(), seed in 0u64..1000) {
        let b = matrix(k, n, seed);
        for precision in [MxPrecision::Mx4, MxPrecision::Mx6, MxPrecision::Mx9] {
            let via_rows = ops::transpose(&quant::quantize_rows(&ops::transpose(&b), precision).unwrap());
            let via_cols = quant::quantize_cols(&b, precision).unwrap();
            prop_assert_eq!(bits(&via_cols), bits(&via_rows));
        }
    }

    /// The transpose-free MX weight-gradient kernel is bit-identical to
    /// materialising the transpose and running the MX GEMM, and the workspace
    /// carries nothing over from a call of another shape.
    #[test]
    fn mx_at_b_gemm_is_bit_identical_to_transposed_mx_matmul((r, m, n) in gemm_dims(), seed in 0u64..1000) {
        let a = matrix(r, m, seed);
        let b = matrix(r, n, seed.wrapping_add(5));
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(1, 1).unwrap();
        let mut reference = Matrix::zeros(1, 1).unwrap();
        for precision in [MxPrecision::Mx4, MxPrecision::Mx6, MxPrecision::Mx9] {
            quant::mx_matmul_into(&ops::transpose(&a), &b, precision, &mut reference, &mut ws).unwrap();
            quant::mx_matmul_at_b_into(&a, &b, precision, &mut out, &mut ws).unwrap();
            prop_assert_eq!(bits(&out), bits(&reference));
        }
    }

    /// The transpose-free weight-gradient kernel is bit-identical to
    /// materialising the transpose and running the packed GEMM.
    #[test]
    fn at_b_gemm_is_bit_identical_to_transposed_matmul((r, m, n) in gemm_dims(), seed in 0u64..1000) {
        let a = matrix(r, m, seed);
        let b = matrix(r, n, seed.wrapping_add(5));
        let reference = ops::matmul(&ops::transpose(&a), &b).unwrap();
        let mut out = Matrix::zeros(1, 1).unwrap();
        let mut ws = Workspace::new();
        ops::matmul_at_b(&a, &b, &mut out, &mut ws).unwrap();
        prop_assert_eq!(&out, &reference);
        prop_assert_eq!(&out, &ops::matmul_reference(&ops::transpose(&a), &b).unwrap());
    }

    /// The transpose-free input-gradient kernels are bit-identical to
    /// materialising the transpose and running the GEMM on it — in f32 and at
    /// the two MX precisions the student runs — over shapes that cross every
    /// edge: k past K_BLOCK, k and n off the 8-wide transposition block, n in
    /// each column-tile regime (≤ 16, 17..=31, ≥ 32 with a tail), m off
    /// I_TILE. One workspace and output serve all calls.
    #[test]
    fn a_bt_gemms_are_bit_identical_to_the_gemm_on_the_transpose((m, k, n) in gemm_dims(), seed in 0u64..1000) {
        let a = matrix(m, k, seed);
        let b = matrix(n, k, seed.wrapping_add(5));
        let b_t = ops::transpose(&b);
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(1, 1).unwrap();
        let mut reference = Matrix::zeros(1, 1).unwrap();
        ops::matmul_into(&a, &b_t, &mut reference, &mut ws).unwrap();
        ops::matmul_a_bt(&a, &b, &mut out, &mut ws).unwrap();
        prop_assert_eq!(bits(&out), bits(&reference));
        for precision in [MxPrecision::Mx6, MxPrecision::Mx9] {
            quant::mx_matmul_into(&a, &b_t, precision, &mut reference, &mut ws).unwrap();
            quant::mx_matmul_a_bt_into(&a, &b, precision, &mut out, &mut ws).unwrap();
            prop_assert_eq!(bits(&out), bits(&reference));
        }
    }

    /// Transposing — into a reused output of another shape, and through the
    /// allocating wrapper — puts every element at its mirrored index.
    #[test]
    fn transpose_into_matches_transpose((m, k, n) in dims(), seed in 0u64..1000) {
        let a = matrix(m, k, seed);
        let mut out = matrix(n, m, seed.wrapping_add(1));
        ops::transpose_into(&a, &mut out);
        prop_assert_eq!(out.shape(), (k, m));
        for r in 0..m {
            for c in 0..k {
                prop_assert_eq!(out[(c, r)].to_bits(), a[(r, c)].to_bits());
            }
        }
        prop_assert_eq!(ops::transpose(&a), out);
    }

    /// axpy(a, s, b) == a + s*b elementwise.
    #[test]
    fn axpy_matches_reference((m, k, _) in dims(), s in -3.0f32..3.0, seed in 0u64..1000) {
        let a = matrix(m, k, seed);
        let b = matrix(m, k, seed.wrapping_add(11));
        let mut fused = a.clone();
        ops::axpy(&mut fused, s, &b).unwrap();
        let reference = ops::add(&a, &ops::scale(&b, s)).unwrap();
        let diff = ops::frobenius_norm(&ops::sub(&fused, &reference).unwrap());
        prop_assert!(diff < 1e-4);
    }
}
