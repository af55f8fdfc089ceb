//! Block-wise MX encoding of arbitrary-length vectors.

use crate::kernel::{self, Format};
use crate::{MxBlock, MxError, MxPrecision, Result, RoundingMode, BLOCK_SIZE};
use serde::{Deserialize, Serialize};

/// An arbitrary-length vector encoded block-by-block in MX format.
///
/// This is the unit the DaCapo memory interface feeds to a row of DPEs: a
/// sequence of 16-element blocks, each with its own shared exponent and
/// microexponents.
///
/// # Examples
///
/// ```
/// use dacapo_mx::{MxPrecision, MxVector};
///
/// # fn main() -> Result<(), dacapo_mx::MxError> {
/// let data: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
/// let encoded = MxVector::encode(&data, MxPrecision::Mx6)?;
/// assert_eq!(encoded.len(), 100);
/// assert_eq!(encoded.num_blocks(), 7); // ceil(100 / 16)
/// let decoded = encoded.decode();
/// assert_eq!(decoded.len(), 100);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MxVector {
    blocks: Vec<MxBlock>,
    len: usize,
    precision: MxPrecision,
}

impl MxVector {
    /// Encodes a slice of `f32` values using round-to-nearest.
    ///
    /// # Errors
    ///
    /// Returns [`MxError::EmptyInput`] for an empty slice and
    /// [`MxError::NonFiniteInput`] if any value is NaN or infinite.
    pub fn encode(values: &[f32], precision: MxPrecision) -> Result<Self> {
        Self::encode_with(values, precision, RoundingMode::Nearest)
    }

    /// Encodes a slice of `f32` values with an explicit [`RoundingMode`].
    ///
    /// # Errors
    ///
    /// Same error conditions as [`MxVector::encode`]. The index reported by a
    /// [`MxError::NonFiniteInput`] refers to the position in `values`.
    pub fn encode_with(
        values: &[f32],
        precision: MxPrecision,
        rounding: RoundingMode,
    ) -> Result<Self> {
        if values.is_empty() {
            return Err(MxError::EmptyInput);
        }
        let mut blocks = Vec::with_capacity(values.len().div_ceil(BLOCK_SIZE));
        for (block_idx, chunk) in values.chunks(BLOCK_SIZE).enumerate() {
            let block = MxBlock::encode(chunk, precision, rounding).map_err(|e| match e {
                MxError::NonFiniteInput { index, value } => {
                    MxError::NonFiniteInput { index: block_idx * BLOCK_SIZE + index, value }
                }
                other => other,
            })?;
            blocks.push(block);
        }
        Ok(Self { blocks, len: values.len(), precision })
    }

    /// Convenience "fake quantisation": encode then immediately decode.
    ///
    /// This is what the DNN substrate uses to emulate running a kernel at a
    /// given MX precision while keeping the master copy of the data in `f32`.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`MxVector::encode`].
    pub fn quantize(values: &[f32], precision: MxPrecision) -> Result<Vec<f32>> {
        Ok(Self::encode(values, precision)?.decode())
    }

    /// Allocation-free fake quantisation: every 16-element block of `values`
    /// is rounded to its MX grid in place of an encode and a decode, and the
    /// result written into `out`.
    ///
    /// Produces exactly the values [`MxVector::quantize`] would, without heap
    /// traffic — this is the entry point the hot retraining GEMMs use.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`MxVector::encode`], plus
    /// [`MxError::LengthMismatch`] if `out.len() != values.len()`.
    pub fn quantize_into(values: &[f32], precision: MxPrecision, out: &mut [f32]) -> Result<()> {
        if values.is_empty() {
            return Err(MxError::EmptyInput);
        }
        if out.len() != values.len() {
            return Err(MxError::LengthMismatch { left: values.len(), right: out.len() });
        }
        let format = Format::new(precision, RoundingMode::Nearest);
        let (whole, tail) = values.split_at(values.len() - values.len() % BLOCK_SIZE);
        let (out_whole, out_tail) = out.split_at_mut(whole.len());
        for (run, (chunk, out_chunk)) in
            whole.chunks(kernel::CHUNK).zip(out_whole.chunks_mut(kernel::CHUNK)).enumerate()
        {
            if !kernel::quantize_run(chunk, format, out_chunk) {
                return Err(MxError::first_non_finite(chunk, run * kernel::CHUNK));
            }
        }
        // A short last block goes through the kernel padded with zeros.
        if !tail.is_empty() {
            let (mut padded, mut quantised) = ([0.0; BLOCK_SIZE], [0.0; BLOCK_SIZE]);
            padded[..tail.len()].copy_from_slice(tail);
            if !kernel::quantize_run(&padded, format, &mut quantised) {
                return Err(MxError::first_non_finite(tail, whole.len()));
            }
            out_tail.copy_from_slice(&quantised[..tail.len()]);
        }
        Ok(())
    }

    /// Fake quantisation **along the rows** of a row-major matrix: `values`
    /// holds `values.len() / cols` rows of `cols` elements, and every row is
    /// quantised in blocks of [`BLOCK_SIZE`] of its own — what
    /// [`MxVector::quantize_into`] produces for each row alone, the last
    /// block of a row short when `cols` is not a multiple of the block size.
    /// This is how a GEMM's left-hand operand is blocked.
    ///
    /// At a width that is a whole number of blocks no block straddles two
    /// rows, and the matrix is one run of blocks. Otherwise the blocks are
    /// staged a run at a time, each short one zero-padded to a whole block:
    /// a zero is the neutral element of the shared-exponent maximum and, in
    /// a subgroup beside a value, never lowers its microexponent, so the
    /// padding changes no value.
    ///
    /// # Errors
    ///
    /// Returns [`MxError::EmptyInput`] for an empty slice,
    /// [`MxError::LengthMismatch`] if `out.len() != values.len()` or the
    /// length is not a multiple of `cols`, and [`MxError::NonFiniteInput`]
    /// with the position in `values` of the first NaN or infinity.
    pub fn quantize_rows_into(
        values: &[f32],
        cols: usize,
        precision: MxPrecision,
        out: &mut [f32],
    ) -> Result<()> {
        check_matrix(values, cols, out)?;
        if cols.is_multiple_of(BLOCK_SIZE) {
            return Self::quantize_into(values, precision, out);
        }
        let format = Format::new(precision, RoundingMode::Nearest);
        const RUN: usize = kernel::CHUNK / BLOCK_SIZE;
        let (mut staged, mut quantised) = ([[0.0; BLOCK_SIZE]; RUN], [[0.0; BLOCK_SIZE]; RUN]);
        // The run's blocks as `(start, len)` in `values`, and where the next
        // block starts: a row, and a column within it.
        let mut run = [(0, 0); RUN];
        let (mut row, mut column) = (0, 0);
        while row < values.len() {
            let mut count = 0;
            while count < RUN && row < values.len() {
                let (start, len) = (row + column, BLOCK_SIZE.min(cols - column));
                stage(&mut staged[count], &values[start..], len);
                run[count] = (start, len);
                count += 1;
                column += BLOCK_SIZE;
                if column >= cols {
                    (row, column) = (row + cols, 0);
                }
            }
            let n = count * BLOCK_SIZE;
            let quantised = &mut quantised.as_flattened_mut()[..n];
            if !kernel::quantize_run(&staged.as_flattened()[..n], format, quantised) {
                let start = run[0].0;
                return Err(MxError::first_non_finite(&values[start..], start));
            }
            for (lanes, &(start, len)) in quantised.chunks_exact(BLOCK_SIZE).zip(&run[..count]) {
                unstage(&mut out[start..], lanes, len);
            }
        }
        Ok(())
    }

    /// Fake quantisation **down the columns** of a row-major matrix:
    /// `values` holds `values.len() / cols` rows of `cols` elements, and
    /// every column is quantised in blocks of [`BLOCK_SIZE`] rows — what
    /// [`MxVector::quantize_into`] produces for each column gathered into a
    /// slice of its own, without the gather. This is how a GEMM's right-hand
    /// operand is blocked, its reduction dimension running down the columns.
    ///
    /// The columns go to the conversion kernel in groups of up to 64, one
    /// lane each. A group whose width is a multiple of 16 is quantised in
    /// place. A ragged group (the 10-wide logits layer; the last group of
    /// any width that is not a multiple of 16) would leave a 16-lane loop
    /// short of one vector and run scalar, so its rows are copied into a
    /// stage whose row stride is the width rounded up to 16, zero beyond the
    /// width, quantised there at the padded width, and only the real lanes
    /// copied back. A lane's shared exponent and subgroups come from its own
    /// column alone, so the zero columns never meet a real one and change no
    /// value.
    ///
    /// # Errors
    ///
    /// Returns [`MxError::EmptyInput`] for an empty slice,
    /// [`MxError::LengthMismatch`] if `out.len() != values.len()` or the
    /// length is not a multiple of `cols`, and [`MxError::NonFiniteInput`]
    /// with the position in `values` of the first NaN or infinity.
    pub fn quantize_columns_into(
        values: &[f32],
        cols: usize,
        precision: MxPrecision,
        out: &mut [f32],
    ) -> Result<()> {
        check_matrix(values, cols, out)?;
        let format = Format::new(precision, RoundingMode::Nearest);
        // Only the last group can be ragged: every other one is CHUNK wide.
        // Its stage is zeroed once; each row block rewrites the same real
        // lanes, so the padding stays zero.
        const STAGE: usize = BLOCK_SIZE * kernel::CHUNK;
        let mut stage =
            if cols.is_multiple_of(BLOCK_SIZE) { None } else { Some(([0.0; STAGE], [0.0; STAGE])) };
        for (src, dst) in values.chunks(BLOCK_SIZE * cols).zip(out.chunks_mut(BLOCK_SIZE * cols)) {
            let rows = src.len() / cols;
            for first in (0..cols).step_by(kernel::CHUNK) {
                let width = kernel::CHUNK.min(cols - first);
                let (src, dst) = (&src[first..], &mut dst[first..]);
                let finite = match &mut stage {
                    Some((staged, quantised)) if !width.is_multiple_of(BLOCK_SIZE) => {
                        let padded = width.next_multiple_of(BLOCK_SIZE);
                        for (lanes, row) in staged.chunks_exact_mut(padded).zip(src.chunks(cols)) {
                            lanes[..width].copy_from_slice(&row[..width]);
                        }
                        let finite = kernel::quantize_down(
                            &staged[..],
                            &mut quantised[..],
                            padded,
                            rows,
                            padded,
                            format,
                        );
                        for (row, lanes) in dst.chunks_mut(cols).zip(quantised.chunks_exact(padded))
                        {
                            row[..width].copy_from_slice(&lanes[..width]);
                        }
                        finite
                    }
                    _ => kernel::quantize_down(src, dst, cols, rows, width, format),
                };
                if !finite {
                    return Err(MxError::first_non_finite(values, 0));
                }
            }
        }
        Ok(())
    }

    /// Decodes the vector back to `f32`, dropping block padding.
    #[must_use]
    pub fn decode(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.len);
        for block in &self.blocks {
            out.extend_from_slice(&block.decode()[..block.len()]);
        }
        out
    }

    /// Dot product with another MX vector, accumulated in FP32 block by block.
    ///
    /// # Errors
    ///
    /// Returns [`MxError::LengthMismatch`] if the logical lengths differ and
    /// [`MxError::PrecisionMismatch`] if the precisions differ.
    pub fn dot(&self, other: &Self) -> Result<f32> {
        if self.len != other.len {
            return Err(MxError::LengthMismatch { left: self.len, right: other.len });
        }
        if self.precision != other.precision {
            return Err(MxError::PrecisionMismatch {
                left: self.precision,
                right: other.precision,
            });
        }
        let mut acc = 0.0f32;
        for (a, b) in self.blocks.iter().zip(other.blocks.iter()) {
            acc += a.dot(b)?;
        }
        Ok(acc)
    }

    /// Number of logical (non-padding) elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no elements (never true for encoded vectors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of 16-element MX blocks backing this vector.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Precision the vector was encoded at.
    #[must_use]
    pub fn precision(&self) -> MxPrecision {
        self.precision
    }

    /// Iterator over the underlying blocks.
    pub fn blocks(&self) -> impl Iterator<Item = &MxBlock> {
        self.blocks.iter()
    }
}

/// `lanes = src[..n]` followed by zeros, for a block of `n ≤ BLOCK_SIZE`
/// values starting `src`. With a whole block of `src` in bounds the loop has
/// a fixed trip count and compiles to a vector load and select; only at the
/// end of the operand is it a copy and a fill.
#[inline(always)]
fn stage(lanes: &mut [f32; BLOCK_SIZE], src: &[f32], n: usize) {
    match src.get(..BLOCK_SIZE) {
        Some(window) => {
            for (l, (lane, &value)) in lanes.iter_mut().zip(window).enumerate() {
                *lane = if l < n { value } else { 0.0 };
            }
        }
        None => {
            lanes[..n].copy_from_slice(&src[..n]);
            lanes[n..].fill(0.0);
        }
    }
}

/// `dst[..n] = lanes[..n]`, [`stage`] undone. With a whole block of `dst` in
/// bounds the loop has a fixed trip count and compiles to a masked vector
/// store. It never reads `dst`: a read-modify-write of the whole block would
/// load lanes the previous block's store has just written, and wait for it.
#[inline(always)]
fn unstage(dst: &mut [f32], lanes: &[f32], n: usize) {
    match dst.get_mut(..BLOCK_SIZE) {
        Some(window) => {
            for (l, (slot, &value)) in window.iter_mut().zip(lanes).enumerate() {
                if l < n {
                    *slot = value;
                }
            }
        }
        None => dst[..n].copy_from_slice(&lanes[..n]),
    }
}

/// The argument checks of the matrix entry points: a non-empty `values` of
/// whole `cols`-wide rows, and an `out` of its length.
fn check_matrix(values: &[f32], cols: usize, out: &[f32]) -> Result<()> {
    if values.is_empty() {
        return Err(MxError::EmptyInput);
    }
    if out.len() != values.len() {
        return Err(MxError::LengthMismatch { left: values.len(), right: out.len() });
    }
    if cols == 0 || !values.len().is_multiple_of(cols) {
        return Err(MxError::LengthMismatch { left: values.len(), right: cols });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::hostile::{self, bits};
    use crate::block::oracle;

    #[test]
    fn encode_empty_is_rejected() {
        assert_eq!(MxVector::encode(&[], MxPrecision::Mx6), Err(MxError::EmptyInput));
    }

    #[test]
    fn non_finite_index_is_global() {
        let mut data = vec![1.0f32; 40];
        data[37] = f32::NAN;
        match MxVector::encode(&data, MxPrecision::Mx6) {
            Err(MxError::NonFiniteInput { index, .. }) => assert_eq!(index, 37),
            other => panic!("expected NonFiniteInput, got {other:?}"),
        }
    }

    #[test]
    fn length_and_block_count_are_consistent() {
        for len in [1usize, 15, 16, 17, 32, 100, 257] {
            let data = vec![0.5f32; len];
            let v = MxVector::encode(&data, MxPrecision::Mx4).unwrap();
            assert_eq!(v.len(), len);
            assert_eq!(v.num_blocks(), len.div_ceil(16));
            assert_eq!(v.decode().len(), len);
        }
    }

    #[test]
    fn dot_rejects_length_mismatch() {
        let a = MxVector::encode(&[1.0f32; 32], MxPrecision::Mx6).unwrap();
        let b = MxVector::encode(&[1.0f32; 31], MxPrecision::Mx6).unwrap();
        assert!(matches!(a.dot(&b), Err(MxError::LengthMismatch { left: 32, right: 31 })));
    }

    #[test]
    fn dot_rejects_precision_mismatch() {
        let a = MxVector::encode(&[1.0f32; 32], MxPrecision::Mx6).unwrap();
        let b = MxVector::encode(&[1.0f32; 32], MxPrecision::Mx9).unwrap();
        assert!(matches!(a.dot(&b), Err(MxError::PrecisionMismatch { .. })));
    }

    #[test]
    fn dot_of_identical_ones_equals_length() {
        let data = vec![1.0f32; 50];
        let v = MxVector::encode(&data, MxPrecision::Mx9).unwrap();
        let dot = v.dot(&v).unwrap();
        assert!((dot - 50.0).abs() < 1e-3);
    }

    #[test]
    fn quantize_is_encode_then_decode() {
        let data: Vec<f32> = (0..33).map(|i| (i as f32) * 0.1 - 1.6).collect();
        let q = MxVector::quantize(&data, MxPrecision::Mx6).unwrap();
        let v = MxVector::encode(&data, MxPrecision::Mx6).unwrap();
        assert_eq!(q, v.decode());
    }

    #[test]
    fn quantize_into_matches_quantize() {
        for len in [1usize, 15, 16, 17, 33, 100] {
            let data: Vec<f32> = (0..len).map(|i| (i as f32) * 0.17 - 3.1).collect();
            let mut out = vec![0.0f32; len];
            for precision in [MxPrecision::Mx4, MxPrecision::Mx6, MxPrecision::Mx9] {
                MxVector::quantize_into(&data, precision, &mut out).unwrap();
                assert_eq!(out, MxVector::quantize(&data, precision).unwrap());
            }
        }
    }

    #[test]
    fn quantize_into_validates_lengths() {
        let mut short = [0.0f32; 3];
        assert!(matches!(
            MxVector::quantize_into(&[1.0; 4], MxPrecision::Mx6, &mut short),
            Err(MxError::LengthMismatch { left: 4, right: 3 })
        ));
        assert_eq!(
            MxVector::quantize_into(&[], MxPrecision::Mx6, &mut []),
            Err(MxError::EmptyInput)
        );
        let mut out = [0.0f32; 2];
        match MxVector::quantize_into(&[1.0, f32::NAN], MxPrecision::Mx6, &mut out) {
            Err(MxError::NonFiniteInput { index, .. }) => assert_eq!(index, 1),
            other => panic!("expected NonFiniteInput, got {other:?}"),
        }
    }

    #[test]
    fn mx9_dot_is_close_to_fp32_reference() {
        let a: Vec<f32> = (0..200).map(|i| ((i * 13 % 97) as f32 - 48.0) * 0.07).collect();
        let b: Vec<f32> = (0..200).map(|i| ((i * 31 % 89) as f32 - 44.0) * 0.05).collect();
        let exact: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        let qa = MxVector::encode(&a, MxPrecision::Mx9).unwrap();
        let qb = MxVector::encode(&b, MxPrecision::Mx9).unwrap();
        let approx = qa.dot(&qb).unwrap();
        assert!(
            (exact - approx).abs() <= 0.02 * exact.abs().max(1.0),
            "exact {exact} vs approx {approx}"
        );
    }
    #[test]
    fn hostile_vectors_match_the_oracle_at_every_length() {
        let mut rng = hostile::Rng(0xDACA_0002);
        for mix in hostile::MIXES {
            for len in 1..=40 {
                for _ in 0..8 {
                    let data = hostile::values(&mut rng, mix, len);
                    for precision in MxPrecision::ALL {
                        for rounding in [RoundingMode::Nearest, RoundingMode::Truncate] {
                            let encoded =
                                MxVector::encode_with(&data, precision, rounding).unwrap();
                            let expected: Vec<MxBlock> = data
                                .chunks(BLOCK_SIZE)
                                .map(|chunk| oracle::encode(chunk, precision, rounding))
                                .collect();
                            assert_eq!(encoded.blocks, expected);
                            assert_eq!(
                                bits(&encoded.decode()),
                                bits(&oracle::quantize(&data, precision, rounding))
                            );
                        }
                        let mut out = vec![f32::NAN; len];
                        MxVector::quantize_into(&data, precision, &mut out).unwrap();
                        let expected = oracle::quantize(&data, precision, RoundingMode::Nearest);
                        assert_eq!(bits(&out), bits(&expected), "{precision} {:x?}", bits(&data));
                    }
                }
            }
        }
    }

    #[test]
    fn column_quantisation_matches_the_oracle_column_by_column() {
        let mut rng = hostile::Rng(0xDACA_0003);
        for mix in hostile::MIXES {
            // Ragged column groups are staged at the next multiple of 16:
            // 32 × 10 alone, 16 × 74 after a whole 64-lane group.
            let shapes = [(1, 1), (2, 5), (15, 16), (16, 17), (17, 3), (33, 35), (40, 10)];
            for (rows, cols) in shapes.into_iter().chain([(32, 10), (16, 74)]) {
                let data = hostile::values(&mut rng, mix, rows * cols);
                for precision in MxPrecision::ALL {
                    let mut out = vec![f32::NAN; data.len()];
                    MxVector::quantize_columns_into(&data, cols, precision, &mut out).unwrap();
                    let mut gathered = vec![f32::NAN; rows];
                    for j in 0..cols {
                        let column: Vec<f32> = (0..rows).map(|r| data[r * cols + j]).collect();
                        let got: Vec<f32> = (0..rows).map(|r| out[r * cols + j]).collect();
                        let expected = oracle::quantize(&column, precision, RoundingMode::Nearest);
                        assert_eq!(bits(&got), bits(&expected), "{rows}x{cols} column {j}");
                        MxVector::quantize_into(&column, precision, &mut gathered).unwrap();
                        assert_eq!(bits(&got), bits(&gathered), "{rows}x{cols} column {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_non_finite_value_in_a_staged_row_is_reported_at_its_index() {
        for (rows, cols) in [(5, 10), (3, 21), (7, 3), (2, 17), (4, 33)] {
            for at in 0..rows * cols {
                for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut data: Vec<f32> = (0..rows * cols).map(|i| i as f32 - 7.5).collect();
                    data[at] = bad;
                    // A later one too: the first is the one reported.
                    if let Some(later) = data.get_mut(at + cols + 1) {
                        *later = f32::NAN;
                    }
                    let mut out = vec![0.0; data.len()];
                    match MxVector::quantize_rows_into(&data, cols, MxPrecision::Mx9, &mut out) {
                        Err(MxError::NonFiniteInput { index, value }) => {
                            assert_eq!(index, at, "{rows}x{cols}");
                            assert_eq!(value.to_bits(), bad.to_bits());
                        }
                        other => panic!("{rows}x{cols} at {at}: got {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn a_non_finite_value_in_a_staged_column_group_is_reported_at_its_index() {
        // 32 × 10 is one ragged group; 16 × 74 a whole 64-lane group and a
        // ragged 10-lane one, the value in the second.
        for (rows, cols, (r, c), index) in [(32, 10, (17, 9), 179), (16, 74, (3, 70), 292)] {
            let mut data: Vec<f32> = (0..rows * cols).map(|i| i as f32 * 0.25 - 7.5).collect();
            data[r * cols + c] = f32::NAN;
            let mut out = vec![0.0; data.len()];
            match MxVector::quantize_columns_into(&data, cols, MxPrecision::Mx9, &mut out) {
                Err(MxError::NonFiniteInput { index: got, value }) => {
                    assert_eq!(got, index, "{rows}x{cols}");
                    assert!(value.is_nan());
                }
                other => panic!("{rows}x{cols}: got {other:?}"),
            }
        }
    }

    #[test]
    fn quantize_rows_into_validates_lengths() {
        let mut out = [0.0f32; 6];
        assert_eq!(
            MxVector::quantize_rows_into(&[], 1, MxPrecision::Mx6, &mut []),
            Err(MxError::EmptyInput)
        );
        assert_eq!(
            MxVector::quantize_rows_into(&[1.0; 6], 3, MxPrecision::Mx6, &mut out[..5]),
            Err(MxError::LengthMismatch { left: 6, right: 5 })
        );
        for cols in [0, 4] {
            assert_eq!(
                MxVector::quantize_rows_into(&[1.0; 6], cols, MxPrecision::Mx6, &mut out),
                Err(MxError::LengthMismatch { left: 6, right: cols })
            );
        }
    }

    #[test]
    fn non_finite_in_the_third_block_reports_the_first_offending_lane() {
        let mut data = vec![1.0f32; 40];
        data[35] = f32::NEG_INFINITY;
        data[37] = f32::NAN;
        let error = MxError::NonFiniteInput { index: 35, value: f32::NEG_INFINITY };
        assert_eq!(MxVector::encode(&data, MxPrecision::Mx6), Err(error.clone()));
        let mut out = vec![0.0f32; 40];
        assert_eq!(MxVector::quantize_into(&data, MxPrecision::Mx6, &mut out), Err(error.clone()));
        // In an 8 × 5 matrix the same element is row 7, column 0; along the
        // rows or down the columns, the report is its position in the slice.
        assert_eq!(
            MxVector::quantize_rows_into(&data, 5, MxPrecision::Mx6, &mut out),
            Err(error.clone())
        );
        assert_eq!(
            MxVector::quantize_columns_into(&data, 5, MxPrecision::Mx6, &mut out),
            Err(error)
        );
    }

    #[test]
    fn quantize_columns_into_validates_lengths() {
        let mut out = [0.0f32; 6];
        assert_eq!(
            MxVector::quantize_columns_into(&[], 1, MxPrecision::Mx6, &mut []),
            Err(MxError::EmptyInput)
        );
        assert_eq!(
            MxVector::quantize_columns_into(&[1.0; 6], 3, MxPrecision::Mx6, &mut out[..5]),
            Err(MxError::LengthMismatch { left: 6, right: 5 })
        );
        for cols in [0, 4] {
            assert_eq!(
                MxVector::quantize_columns_into(&[1.0; 6], cols, MxPrecision::Mx6, &mut out),
                Err(MxError::LengthMismatch { left: 6, right: cols })
            );
        }
    }
}
