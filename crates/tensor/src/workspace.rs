//! Reusable scratch arenas for the packed GEMM kernels.
//!
//! The hot retraining path multiplies the same handful of small matrices
//! thousands of times per simulated run; allocating operand copies, panels,
//! and outputs on every call makes the allocator the bottleneck long before
//! the FPU. A [`Workspace`] owns every intermediate buffer the blocked
//! kernels in [`ops`](crate::ops) and [`quant`](crate::quant) need — the
//! packed B panel and the quantised left operand — so steady-state kernel
//! invocations allocate nothing.
//!
//! [`MatrixSlot`] is the matrix-shaped counterpart: a lazily grown slot that
//! callers reuse as the output of `*_into` kernels (or as zeroed scratch)
//! without reallocating between calls. Higher layers compose these into
//! per-model scratch bundles (see `dacapo_dnn::batch::TrainScratch`).
//!
//! # Examples
//!
//! ```
//! use dacapo_tensor::{ops, Matrix, Workspace};
//!
//! # fn main() -> Result<(), dacapo_tensor::TensorError> {
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
//! let b = Matrix::identity(2);
//! let mut ws = Workspace::new();
//! let mut out = Matrix::zeros(1, 1)?;
//! ops::matmul_into(&a, &b, &mut out, &mut ws)?;
//! assert_eq!(out, a);
//! # Ok(())
//! # }
//! ```

use crate::{Matrix, Result};

/// Reduction-dimension block size of the packed GEMM kernels.
///
/// A multiple of the MX block size (16), so quantising a `K_BLOCK`-long
/// column segment produces exactly the blocks that quantising the full
/// column would — the property that makes the fused quantise-and-pack path
/// in [`quant`](crate::quant) bit-identical to the unfused reference.
pub const K_BLOCK: usize = 64;

const _: () = assert!(K_BLOCK.is_multiple_of(dacapo_mx::BLOCK_SIZE));

/// Scratch buffers reused across packed GEMM invocations.
///
/// One workspace serves any sequence of kernel calls of any shapes: buffers
/// grow to the high-water mark and stay there. A workspace carries no
/// numeric state between calls — every kernel fully overwrites the regions
/// it reads — so sharing one workspace across models or sessions cannot
/// change results.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// Packed B panel for the current reduction block (`kc × n`, row-major
    /// by reduction index).
    pub(crate) panel: Vec<f32>,
    /// Quantised copy of the left GEMM operand (row-major, same shape).
    pub(crate) qa: Vec<f32>,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A lazily allocated, reusable matrix slot.
///
/// The slot keeps its backing storage across reuse, so resizing to a shape
/// already seen allocates nothing. Used for the outputs of the `*_into`
/// kernels and for per-layer scratch in the DNN training path.
#[derive(Debug, Clone, Default)]
pub struct MatrixSlot {
    inner: Option<Matrix>,
}

impl MatrixSlot {
    /// Creates an empty slot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrows the slot as a kernel output target of unspecified shape and
    /// contents. Pass the result to an `*_into` kernel, which resizes and
    /// fully overwrites it.
    pub fn target(&mut self) -> &mut Matrix {
        self.inner.get_or_insert_with(Matrix::unit)
    }

    /// Borrows the slot as a zero-filled `rows`×`cols` matrix, reusing the
    /// backing storage.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`](crate::TensorError) if
    /// either dimension is zero.
    pub fn zeroed(&mut self, rows: usize, cols: usize) -> Result<&mut Matrix> {
        let m = self.inner.get_or_insert_with(Matrix::unit);
        m.reset_to(rows, cols)?;
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_reuses_storage_across_shapes() {
        let mut slot = MatrixSlot::new();
        let m = slot.zeroed(4, 8).unwrap();
        m[(3, 7)] = 5.0;
        let again = slot.zeroed(2, 3).unwrap();
        assert_eq!(again.shape(), (2, 3));
        assert!(again.as_slice().iter().all(|&v| v == 0.0));
        assert_eq!(slot.target().shape(), (2, 3));
    }

    #[test]
    fn zeroed_rejects_zero_dimensions() {
        let mut slot = MatrixSlot::new();
        assert!(slot.zeroed(0, 3).is_err());
    }

    #[test]
    fn k_block_is_an_mx_block_multiple() {
        assert_eq!(K_BLOCK % dacapo_mx::BLOCK_SIZE, 0);
    }
}
