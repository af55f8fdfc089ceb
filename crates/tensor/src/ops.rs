//! Matrix operations: GEMM, transpose, elementwise ops and reductions.
//!
//! Every GEMM here is one kernel: a [`K_BLOCK`] loop that hands a `kc × n`
//! panel of the right operand — row `kk` holding the `n` values at reduction
//! index `kb + kk` — to a single register tile, which folds it into the
//! output. The MX GEMMs of [`quant`](crate::quant) are these GEMMs on
//! quantised copies of their operands. The three entry points differ only
//! in how they address their operands:
//!
//! * `A·B` ([`matmul_into`]): `A` by rows, and `B`'s rows `kb..kb + kc` *are*
//!   the panel.
//! * `Aᵀ·B` ([`matmul_at_b`]): `A` by columns (strided loads), `B` as above.
//! * `A·Bᵀ` ([`matmul_a_bt`]): `A` by rows, and the panel is `B`'s columns
//!   `kb..kb + kc`, stored transposed through the block routine
//!   [`transpose_into`] also runs.
//!
//! A panel is *packed* — copied into the [`Workspace`] — only when it has
//! to be: for `A·Bᵀ` (the transposition is the packing), and for `A·B` /
//! `Aᵀ·B` when `B`'s width is not a multiple of the register tile's, because
//! the tile for the last columns reads a full tile width and needs padding
//! after the last row. Otherwise the kernel reads `B` where it lies.
//!
//! The `*_into` / `*_inplace` forms, which take their output (and, for
//! GEMMs, a reusable [`Workspace`]) from the caller, are the
//! implementations; the forms that return a fresh matrix ([`matmul`],
//! [`transpose`], [`add_row_broadcast`], [`sum_rows`]) call them with a new
//! output. No GEMM clears its output first: the tile starts the first
//! reduction block from zero in registers and stores over whatever was
//! there. Every output element accumulates its products in strictly
//! ascending reduction order, so blocking, packing and addressing change
//! memory traffic, never arithmetic; [`matmul_reference`] is the naive loop
//! the tests hold the kernel bit-identical to.
//!
//! The multiply–accumulate of that loop, and so of the kernel, is the
//! *fused* one: `acc ← round(a·b + acc)`, IEEE-754 `fusedMultiplyAdd`, one
//! rounding per product where `acc += a * b` has two. It is written out as
//! the explicit fused operation of `f32` — never left to the compiler to
//! contract, which Rust does not do — so it yields the same bits on every
//! target and at every optimisation level; "bit-identical to the naive
//! loop" means to the naive loop with this accumulate. It is how the GPUs
//! the FP32 baseline stands for accumulate, and it halves the kernel's
//! floating-point instructions. Only the GEMMs fuse: [`axpy`] and the
//! elementwise and softmax paths round each product. On a build without
//! hardware FMA (x86-64 without the `fma` target feature, i.e. without this
//! repository's `.cargo/config.toml`) the operation is a libm call per
//! product — same results, an order of magnitude slower.

use crate::workspace::K_BLOCK;
use crate::{Matrix, Result, TensorError, Workspace};

/// Matrix multiplication `A (m×k) · B (k×n) → C (m×n)` in `f32`.
///
/// [`matmul_into`] with a fresh output and workspace.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols() != B.rows()`.
///
/// # Examples
///
/// ```
/// use dacapo_tensor::{Matrix, ops};
///
/// # fn main() -> Result<(), dacapo_tensor::TensorError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]])?;
/// let c = ops::matmul(&a, &b)?;
/// assert_eq!(c[(0, 0)], 19.0);
/// assert_eq!(c[(1, 1)], 50.0);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    let mut out = Matrix::identity(1);
    matmul_into(a, b, &mut out, &mut Workspace::new())?;
    Ok(out)
}

/// Blocked GEMM writing into a reusable output matrix.
///
/// The kernel tiles the reduction dimension into [`K_BLOCK`]-wide blocks and
/// runs an i-k-j inner loop over each block's rows of `B`, in place or
/// packed (see the [module docs](self)). Every output element still
/// accumulates its `k` products in ascending order, so the result is
/// bit-identical to the naive triple loop ([`matmul_reference`]); the
/// blocking only improves locality and lets the caller amortise all
/// allocations through `ws` and `out`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols() != B.rows()`.
pub fn matmul_into(a: &Matrix, b: &Matrix, out: &mut Matrix, ws: &mut Workspace) -> Result<()> {
    let blocks = reduction_blocks("matmul", a, b, a.shape(), b.shape(), out)?;
    gemm(a.as_slice(), b.as_slice(), blocks, out, &mut ws.panel);
    Ok(())
}

/// The loop of [`matmul_into`] over operands given as row-major data, `a`
/// of `out.rows()` rows and `b` of `out.cols()` columns, once
/// [`reduction_blocks`] has checked their shapes: each block's rows of `b`
/// become the panel ([`panel_rows`]) that [`accumulate_panel`] folds in.
pub(crate) fn gemm(
    a: &[f32],
    b: &[f32],
    blocks: impl Iterator<Item = (usize, usize)>,
    out: &mut Matrix,
    panel: &mut Vec<f32>,
) {
    let (k, n) = (a.len() / out.rows(), out.cols());
    for (kb, kc) in blocks {
        let panel = panel_rows(panel, &b[kb * n..(kb + kc) * n], n);
        accumulate_panel(a, k, kb, kc, panel, out);
    }
}

/// The naive triple-loop GEMM: the reference the packed kernels are tested
/// bit-identical to (`matmul_into == matmul_reference`), not a production
/// path. Each element folds its `k` products in ascending order with the
/// fused multiply–add — one rounding per product (see the
/// [module docs](self)) — and this loop is the definition of that
/// arithmetic: the tests pin it to a scalar fused loop and, on a crafted
/// operand, apart from the two-rounding `acc += a * b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols() != B.rows()`.
pub fn matmul_reference(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch { op: "matmul", left: a.shape(), right: b.shape() });
    }
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n)?;
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a[(i, kk)].mul_add(b[(kk, j)], acc);
            }
            out[(i, j)] = acc;
        }
    }
    Ok(out)
}

/// The opening every GEMM shares: checks that the operands as the kernel
/// reads them — the left one as `m × k`, the right one as `k × n`, each its
/// own shape or, for a transposed operand, the reverse — agree on the
/// reduction length, resizes `out` to `m × n` without clearing it (the
/// first block's tiles overwrite every element), and yields the `(kb, kc)`
/// start and length of each [`K_BLOCK`] reduction block in ascending order.
pub(crate) fn reduction_blocks(
    op: &'static str,
    a: &Matrix,
    b: &Matrix,
    (m, k): (usize, usize),
    (b_k, n): (usize, usize),
    out: &mut Matrix,
) -> Result<impl Iterator<Item = (usize, usize)>> {
    if k != b_k {
        return Err(TensorError::ShapeMismatch { op, left: a.shape(), right: b.shape() });
    }
    out.resize_for_overwrite(m, n)?;
    Ok((0..k).step_by(K_BLOCK).map(move |kb| (kb, K_BLOCK.min(k - kb))))
}

/// One reduction block's `n`-wide rows of the right operand as the kernel's
/// panel. When `n` is a [`J_TILE`] multiple every tile is a full one and no
/// load passes the end of a row, so the rows are handed over where they lie;
/// otherwise they are copied into `panel` and followed by [`J_TILE`] zeros,
/// so the fixed-width tail tile of [`row_strip`] may read one full tile past
/// the last row.
fn panel_rows<'a>(panel: &'a mut Vec<f32>, rows: &'a [f32], n: usize) -> &'a [f32] {
    if n.is_multiple_of(J_TILE) {
        return rows;
    }
    padded_panel(panel, rows.len() / n, n).copy_from_slice(rows);
    panel
}

/// Sizes `panel` for `kc` rows of `n` values that the caller is about to
/// overwrite, followed by the [`J_TILE`] zeros of padding the tail tile may
/// read; returns the rows.
fn padded_panel(panel: &mut Vec<f32>, kc: usize, n: usize) -> &mut [f32] {
    panel.resize(kc * n + J_TILE, 0.0);
    let (rows, padding) = panel.split_at_mut(kc * n);
    padding.fill(0.0);
    rows
}

/// Column-tile width of the register-accumulated inner kernel: four 8-lane
/// f32 vectors per row on AVX2, two 16-lane ones on AVX-512 (the x86-64
/// build turns off LLVM's 256-bit preference, so the release binary's tile
/// is on `zmm`: `scripts/asm.sh accumulate_panel`), a handful of registers
/// on narrower ISAs, and a whole tile for the common 32/64-wide hidden
/// layers.
pub(crate) const J_TILE: usize = 32;

/// Rows processed together by the register-blocked inner kernel: enough
/// independent accumulator chains to hide FMA latency without spilling the
/// `I_TILE × J_TILE` accumulator block out of registers.
pub(crate) const I_TILE: usize = 4;

/// The register tile every packed GEMM runs: `R` output rows by `W` panel
/// columns, of which the first `jw` are stored.
///
/// `out` and `panel` start at the tile's first row and column and keep the
/// full row stride `n`; `lhs(kk)` is the left operand's `R` values for
/// reduction index `kk`. The tile starts from zero for the `first`
/// reduction block and from its current `out` values for a later one, folds
/// the whole block in registers, and stores once. The `R` rows share every
/// panel load and give the CPU that many independent accumulator chains per
/// column vector, so the loop is throughput- rather than latency-bound. Per
/// output element this performs *exactly* the same fused multiply–adds in
/// the same order as updating a zeroed output in memory after every product
/// — blocking only changes which elements progress concurrently, never the
/// reduction order within an element — so the result stays bit-identical
/// to [`matmul_reference`], whose accumulate the inner line is (one
/// rounding per product; with hardware FMA, one vector instruction per
/// eight of them). Lanes past `jw` multiply whatever follows in the panel
/// (the next row, or the padding after the last) and are never stored,
/// which keeps the loop vectorised at full width.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    lhs: impl Fn(usize) -> [f32; R],
    kc: usize,
    panel: &[f32],
    out: &mut [f32],
    n: usize,
    jw: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; W]; R];
    if !first {
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row[..jw].copy_from_slice(&out[r * n..r * n + jw]);
        }
    }
    for kk in 0..kc {
        let b_tile = &panel[kk * n..kk * n + W];
        let x = lhs(kk);
        for (l, &bv) in b_tile.iter().enumerate() {
            for r in 0..R {
                acc[r][l] = x[r].mul_add(bv, acc[r][l]);
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n..r * n + jw].copy_from_slice(&acc_row[..jw]);
    }
}

/// Runs [`tile`] across one strip of `R` output rows (`out` is those rows,
/// `R × n`): full [`J_TILE`] tiles, then one tail tile — full width over
/// the panel's padding when more than half a tile is live, half width
/// otherwise (a 10-class logits column block wastes far fewer dead lanes
/// that way).
#[inline(always)]
fn row_strip<const R: usize>(
    lhs: impl Fn(usize) -> [f32; R],
    kc: usize,
    panel: &[f32],
    out: &mut [f32],
    n: usize,
    first: bool,
) {
    const H_TILE: usize = J_TILE / 2;
    let mut jt = 0;
    while jt + J_TILE <= n {
        tile::<R, J_TILE>(&lhs, kc, &panel[jt..], &mut out[jt..], n, J_TILE, first);
        jt += J_TILE;
    }
    let jw = n - jt;
    if jw > H_TILE {
        tile::<R, J_TILE>(&lhs, kc, &panel[jt..], &mut out[jt..], n, jw, first);
    } else if jw > 0 {
        tile::<R, H_TILE>(&lhs, kc, &panel[jt..], &mut out[jt..], n, jw, first);
    }
}

/// Accumulates one reduction block of the GEMM:
/// `out[i][j] += sum_{kk} a[i][kb + kk] * panel[kk][j]` — `=` for the first
/// block, `kb == 0`, which is what initialises `out` — with the panel rows
/// visited in ascending reduction order: [`I_TILE`]-row strips of [`tile`]s,
/// then single rows. Never inlined, like [`accumulate_panel_t`]: the two
/// are the tile's symbols in a release binary, whose lane width
/// `scripts/check-width.sh` checks.
#[inline(never)]
fn accumulate_panel(
    a_data: &[f32],
    k: usize,
    kb: usize,
    kc: usize,
    panel: &[f32],
    out: &mut Matrix,
) {
    let (m, n) = out.shape();
    let out_data = out.as_mut_slice();
    let a_row = |i: usize| &a_data[i * k + kb..i * k + kb + kc];
    let mut i = 0;
    while i + I_TILE <= m {
        let (a0, a1, a2, a3) = (a_row(i), a_row(i + 1), a_row(i + 2), a_row(i + 3));
        let strip = &mut out_data[i * n..(i + I_TILE) * n];
        row_strip(|kk| [a0[kk], a1[kk], a2[kk], a3[kk]], kc, panel, strip, n, kb == 0);
        i += I_TILE;
    }
    while i < m {
        let a0 = a_row(i);
        row_strip(|kk| [a0[kk]], kc, panel, &mut out_data[i * n..(i + 1) * n], n, kb == 0);
        i += 1;
    }
}

/// `Aᵀ · B` into a reusable output, without materialising the transpose.
///
/// With `A` of shape `r×m` and `B` of shape `r×n`, computes the `m×n`
/// product `C[i][j] = Σ_rr A[rr][i] · B[rr][j]` with the same panels,
/// blocking, and register kernel as [`matmul_into`] — only the `A` operand
/// is addressed column-wise instead of being materialised transposed. Per
/// output element the products accumulate in ascending `rr` order, exactly
/// the reduction order of `matmul(transpose(A), B)`, so the result is
/// bit-identical to that two-step form (property-tested). This is the
/// weight-gradient kernel of the backward pass: `d_w = xᵀ · δ` without the
/// per-batch activation transpose.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.rows() != B.rows()`.
pub fn matmul_at_b(a: &Matrix, b: &Matrix, out: &mut Matrix, ws: &mut Workspace) -> Result<()> {
    let (r, m) = a.shape();
    let blocks = reduction_blocks("matmul_at_b", a, b, (m, r), b.shape(), out)?;
    gemm_at_b(a.as_slice(), b.as_slice(), blocks, out, &mut ws.panel);
    Ok(())
}

/// The loop of [`matmul_at_b`] over row-major data, `a` of `out.rows()`
/// columns and `b` of `out.cols()`: [`gemm`] with the left operand read by
/// [`accumulate_panel_t`].
pub(crate) fn gemm_at_b(
    a: &[f32],
    b: &[f32],
    blocks: impl Iterator<Item = (usize, usize)>,
    out: &mut Matrix,
    panel: &mut Vec<f32>,
) {
    let (m, n) = out.shape();
    for (rb, rc) in blocks {
        let panel = panel_rows(panel, &b[rb * n..(rb + rc) * n], n);
        accumulate_panel_t(a, m, rb, rc, panel, out);
    }
}

/// [`accumulate_panel`] with the left operand read transposed:
/// `out[i][j] += sum_{kk} a[rb + kk][i] * panel[kk][j]`. Same strips, tiles
/// and reduction order; only the `a` element addressing changes
/// (column-strided loads instead of contiguous rows), so the result is
/// bit-identical to transposing `a` and running [`accumulate_panel`].
#[inline(never)]
fn accumulate_panel_t(
    a_data: &[f32],
    m: usize,
    rb: usize,
    rc: usize,
    panel: &[f32],
    out: &mut Matrix,
) {
    let n = out.cols();
    let a_block = &a_data[rb * m..(rb + rc) * m];
    let out_data = out.as_mut_slice();
    let mut i = 0;
    while i + I_TILE <= m {
        let lhs = |kk: usize| {
            let a = &a_block[kk * m + i..kk * m + i + I_TILE];
            [a[0], a[1], a[2], a[3]]
        };
        row_strip(lhs, rc, panel, &mut out_data[i * n..(i + I_TILE) * n], n, rb == 0);
        i += I_TILE;
    }
    while i < m {
        let lhs = |kk: usize| [a_block[kk * m + i]];
        row_strip(lhs, rc, panel, &mut out_data[i * n..(i + 1) * n], n, rb == 0);
        i += 1;
    }
}

/// `A · Bᵀ` into a reusable output, without materialising the transpose.
///
/// With `A` of shape `m×k` and `B` of shape `n×k`, computes the `m×n`
/// product `C[i][j] = Σ_kk A[i][kk] · B[j][kk]`. Packing a panel is where the
/// transposition happens: the panel of a reduction block is `B`'s columns
/// `kb..kb + kc`, stored row-major by reduction index through the block
/// routine of [`transpose_into`], and the kernel folds it exactly as it
/// folds a panel of `transpose(B)`'s rows — so the result is bit-identical
/// to `matmul_into(A, transpose(B))` (property-tested). This is the
/// input-gradient kernel of the backward pass: `d_x = δ · Wᵀ` without the
/// per-step weight transpose.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `A.cols() != B.cols()`.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix, out: &mut Matrix, ws: &mut Workspace) -> Result<()> {
    let (n, k) = b.shape();
    for (kb, kc) in reduction_blocks("matmul_a_bt", a, b, a.shape(), (k, n), out)? {
        let panel = padded_panel(&mut ws.panel, kc, n);
        transpose_blocks(&b.as_slice()[kb..], k, n, kc, panel, n);
        accumulate_panel(a.as_slice(), k, kb, kc, &ws.panel, out);
    }
    Ok(())
}

/// Transposes a matrix: [`transpose_into`] with a fresh output.
#[must_use]
pub fn transpose(a: &Matrix) -> Matrix {
    let mut out = Matrix::identity(1);
    transpose_into(a, &mut out);
    out
}

/// Transposes `a` into a reusable output matrix (no allocation once `out`
/// has grown to size), in 8×8 blocks whose rows are read and written as
/// contiguous runs (transposition moves data, never computes, so blocking
/// cannot affect values).
pub fn transpose_into(a: &Matrix, out: &mut Matrix) {
    let (m, n) = a.shape();
    out.resize_for_overwrite(n, m).expect("source dimensions are positive");
    transpose_blocks(a.as_slice(), n, m, n, out.as_mut_slice(), m);
}

/// The one transposition routine: `dst[c][r] = src[r][c]` for `r < rows`,
/// `c < cols`, where `src` and `dst` start at the first element of a
/// row-major region and hold their rows `src_stride` and `dst_stride`
/// apart — so either side may be a window of a wider matrix.
///
/// Works in 8×8 blocks: eight source rows are read as eight-element runs
/// and each destination row is written as one run gathered across them,
/// which the compiler turns into vector loads, shuffles and stores (the
/// block edges of other sizes take the scalar loop). Transposition moves
/// data, never computes, so blocking cannot affect values.
pub(crate) fn transpose_blocks(
    src: &[f32],
    src_stride: usize,
    rows: usize,
    cols: usize,
    dst: &mut [f32],
    dst_stride: usize,
) {
    const T: usize = 8;
    for rb in (0..rows).step_by(T) {
        for cb in (0..cols).step_by(T) {
            let src = &src[rb * src_stride + cb..];
            let dst = &mut dst[cb * dst_stride + rb..];
            if rb + T <= rows && cb + T <= cols {
                let runs: [&[f32]; T] =
                    std::array::from_fn(|r| &src[r * src_stride..r * src_stride + T]);
                for c in 0..T {
                    let out = &mut dst[c * dst_stride..c * dst_stride + T];
                    for (o, run) in out.iter_mut().zip(runs) {
                        *o = run[c];
                    }
                }
            } else {
                for c in 0..T.min(cols - cb) {
                    for r in 0..T.min(rows - rb) {
                        dst[c * dst_stride + r] = src[r * src_stride + c];
                    }
                }
            }
        }
    }
}

/// Elementwise addition.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn add(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    zip_with(a, b, "add", |x, y| x + y)
}

/// Elementwise subtraction (`a - b`).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn sub(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    zip_with(a, b, "sub", |x, y| x - y)
}

/// Elementwise (Hadamard) product.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn hadamard(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    zip_with(a, b, "hadamard", |x, y| x * y)
}

/// Adds `scale * b` into `a` in place (the SGD update primitive).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn axpy(a: &mut Matrix, scale: f32, b: &Matrix) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch { op: "axpy", left: a.shape(), right: b.shape() });
    }
    for (x, y) in a.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *x += scale * y;
    }
    Ok(())
}

/// Multiplies every element by a scalar, returning a new matrix.
#[must_use]
pub fn scale(a: &Matrix, factor: f32) -> Matrix {
    a.map(|v| v * factor)
}

/// Adds a 1×n row vector to every row of `a`, the bias-add primitive:
/// [`add_row_broadcast_inplace`] on a copy of `a`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `bias.cols() != a.cols()` or the
/// bias has more than one row.
pub fn add_row_broadcast(a: &Matrix, bias: &Matrix) -> Result<Matrix> {
    let mut out = a.clone();
    add_row_broadcast_inplace(&mut out, bias)?;
    Ok(out)
}

/// Adds a 1×n row vector to every row of `a` in place — the bias-add of the
/// DNN forward pass.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] unless `bias` is `1 × a.cols()`.
pub fn add_row_broadcast_inplace(a: &mut Matrix, bias: &Matrix) -> Result<()> {
    if bias.rows() != 1 || bias.cols() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "add_row_broadcast",
            left: a.shape(),
            right: bias.shape(),
        });
    }
    let (m, n) = a.shape();
    let data = a.as_mut_slice();
    let b = bias.as_slice();
    for row in 0..m {
        for (v, bv) in data[row * n..(row + 1) * n].iter_mut().zip(b) {
            *v += bv;
        }
    }
    Ok(())
}

/// Row-wise softmax (numerically stabilised by subtracting the row max).
#[must_use]
pub fn softmax_rows(a: &Matrix) -> Matrix {
    let mut out = a.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
    out
}

/// Index of the maximum element of `row` (ties resolve to the first).
fn argmax(row: &[f32]) -> usize {
    row.iter()
        .enumerate()
        .fold(
            (0usize, f32::NEG_INFINITY),
            |(bi, bv), (i, &v)| if v > bv { (i, v) } else { (bi, bv) },
        )
        .0
}

/// Index of the maximum element in each row (ties resolve to the first).
#[must_use]
pub fn argmax_rows(a: &Matrix) -> Vec<usize> {
    a.iter_rows().map(argmax).collect()
}

/// Number of rows whose maximum sits at the row's label — the count of
/// correct predictions over a batch of logits, by the tie rule of
/// [`argmax_rows`] and without its `Vec`. Rows and labels pair up in order;
/// the longer of the two is cut to the shorter.
#[must_use]
pub fn argmax_matches(a: &Matrix, labels: &[usize]) -> usize {
    a.iter_rows().zip(labels).filter(|&(row, &label)| argmax(row) == label).count()
}

/// Sum of every element.
#[must_use]
pub fn sum(a: &Matrix) -> f32 {
    a.as_slice().iter().sum()
}

/// Mean of every element.
#[must_use]
pub fn mean(a: &Matrix) -> f32 {
    sum(a) / a.len() as f32
}

/// Column-wise sum, returned as a 1×n matrix (the bias-gradient primitive):
/// [`sum_rows_into`] with a fresh output.
#[must_use]
pub fn sum_rows(a: &Matrix) -> Matrix {
    let mut out = Matrix::identity(1);
    sum_rows_into(a, &mut out);
    out
}

/// Column sums of `a` into a reusable 1×n output; rows are accumulated top
/// to bottom.
pub fn sum_rows_into(a: &Matrix, out: &mut Matrix) {
    out.reset_to(1, a.cols()).expect("cols > 0");
    let acc = out.as_mut_slice();
    for row in a.iter_rows() {
        for (o, v) in acc.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// Frobenius norm, `sqrt(sum of squares)`.
#[must_use]
pub fn frobenius_norm(a: &Matrix) -> f32 {
    a.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
}

fn zip_with(
    a: &Matrix,
    b: &Matrix,
    op: &'static str,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Matrix> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch { op, left: a.shape(), right: b.shape() });
    }
    let data = a.as_slice().iter().zip(b.as_slice()).map(|(&x, &y)| f(x, y)).collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Matrix, Matrix) {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]).unwrap();
        (a, b)
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let (a, b) = sample();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c[(0, 0)], 58.0);
        assert_eq!(c[(0, 1)], 64.0);
        assert_eq!(c[(1, 0)], 139.0);
        assert_eq!(c[(1, 1)], 154.0);
    }

    #[test]
    fn matmul_rejects_incompatible_shapes() {
        let (a, _) = sample();
        assert!(matches!(matmul(&a, &a), Err(TensorError::ShapeMismatch { op: "matmul", .. })));
    }

    #[test]
    fn a_bt_validates_shapes_and_matches_the_gemm_on_the_transpose() {
        let (a, b) = sample();
        let (mut out, mut ws) = (Matrix::identity(1), Workspace::new());
        assert!(matches!(
            matmul_a_bt(&a, &b, &mut out, &mut ws),
            Err(TensorError::ShapeMismatch { op: "matmul_a_bt", left: (2, 3), right: (3, 2) })
        ));
        matmul_a_bt(&a, &transpose(&b), &mut out, &mut ws).unwrap();
        assert_eq!(out, matmul(&a, &b).unwrap());
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let (a, _) = sample();
        let i3 = Matrix::identity(3);
        assert_eq!(matmul(&a, &i3).unwrap(), a);
        let i2 = Matrix::identity(2);
        assert_eq!(matmul(&i2, &a).unwrap(), a);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let (a, _) = sample();
        assert_eq!(transpose(&transpose(&a)), a);
        assert_eq!(transpose(&a).shape(), (3, 2));
        assert_eq!(transpose(&a)[(2, 1)], 6.0);
    }

    #[test]
    fn transpose_distributes_over_matmul() {
        let (a, b) = sample();
        let left = transpose(&matmul(&a, &b).unwrap());
        let right = matmul(&transpose(&b), &transpose(&a)).unwrap();
        assert_eq!(left, right);
    }

    #[test]
    fn elementwise_ops_and_shape_checks() {
        let (a, b) = sample();
        assert!(add(&a, &b).is_err());
        let s = add(&a, &a).unwrap();
        assert_eq!(s[(1, 2)], 12.0);
        let d = sub(&s, &a).unwrap();
        assert_eq!(d, a);
        let h = hadamard(&a, &a).unwrap();
        assert_eq!(h[(1, 0)], 16.0);
    }

    #[test]
    fn axpy_is_fused_scale_add() {
        let (a, _) = sample();
        let mut target = a.clone();
        axpy(&mut target, -0.5, &a).unwrap();
        assert_eq!(target, scale(&a, 0.5));
        let wrong = Matrix::zeros(3, 3).unwrap();
        assert!(axpy(&mut target, 1.0, &wrong).is_err());
    }

    #[test]
    fn add_row_broadcast_adds_bias_to_each_row() {
        let (a, _) = sample();
        let bias = Matrix::from_rows(&[&[1.0, 0.0, -1.0]]).unwrap();
        let out = add_row_broadcast(&a, &bias).unwrap();
        assert_eq!(out[(0, 0)], 2.0);
        assert_eq!(out[(1, 2)], 5.0);
        let bad = Matrix::zeros(2, 3).unwrap();
        assert!(add_row_broadcast(&a, &bad).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_order() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[-10.0, 0.0, 10.0]]).unwrap();
        let s = softmax_rows(&a);
        for r in 0..2 {
            let row_sum: f32 = s.row(r).iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
            assert!(s[(r, 2)] > s[(r, 1)]);
            assert!(s[(r, 1)] > s[(r, 0)]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let a = Matrix::from_rows(&[&[1000.0, 1001.0]]).unwrap();
        let s = softmax_rows(&a);
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        assert!((sum(&s) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn argmax_rows_picks_largest() {
        let a = Matrix::from_rows(&[&[0.1, 0.9, 0.0], &[5.0, -1.0, 2.0]]).unwrap();
        assert_eq!(argmax_rows(&a), vec![1, 0]);
        assert_eq!(argmax_matches(&a, &[1, 2]), 1);
        // A tie resolves to the first maximum, for both.
        let tied = Matrix::from_rows(&[&[3.0, 3.0], &[f32::NAN, 1.0]]).unwrap();
        assert_eq!(argmax_rows(&tied), vec![0, 1]);
        assert_eq!(argmax_matches(&tied, &[0, 1]), 2);
        assert_eq!(argmax_matches(&tied, &[1, 0]), 0);
    }

    #[test]
    fn reductions_are_consistent() {
        let (a, _) = sample();
        assert_eq!(sum(&a), 21.0);
        assert!((mean(&a) - 3.5).abs() < 1e-6);
        assert_eq!(sum_rows(&a).row(0), &[5.0, 7.0, 9.0]);
        assert!((frobenius_norm(&a) - (91.0f32).sqrt()).abs() < 1e-5);
    }
}
