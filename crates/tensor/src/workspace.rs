//! Reusable scratch arenas for the packed GEMM kernels.
//!
//! The hot retraining path multiplies the same handful of small matrices
//! thousands of times per simulated run; allocating operand copies, panels,
//! and outputs on every call makes the allocator the bottleneck long before
//! the FPU. A [`Workspace`] owns every intermediate buffer the blocked
//! kernels in [`ops`](crate::ops) and [`quant`](crate::quant) need — the
//! packed B panel, the quantised left operand and the MX `A·Bᵀ` staging
//! area — so steady-state kernel invocations allocate nothing.
//!
//! Outputs need no counterpart type: every `*_into` kernel resizes and fully
//! overwrites the [`Matrix`](crate::Matrix) it is handed, keeping its
//! backing storage, so a caller reuses a plain matrix (seeded with any
//! placeholder, conventionally `Matrix::identity(1)`). Higher layers compose
//! the two into per-model scratch bundles (see
//! `dacapo_dnn::batch::TrainScratch`).
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
    /// by reduction index), when the kernel cannot read `B` in place.
    pub(crate) panel: Vec<f32>,
    /// Quantised copy of the left GEMM operand (row-major, same shape).
    pub(crate) qa: Vec<f32>,
    /// The MX `A·Bᵀ` panel before quantisation: `B`'s columns of the current
    /// reduction block, transposed (`kc × n`).
    pub(crate) staged: Vec<f32>,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of backing storage the workspace has grown to.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        (self.panel.capacity() + self.qa.capacity() + self.staged.capacity())
            * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_block_is_an_mx_block_multiple() {
        assert_eq!(K_BLOCK % dacapo_mx::BLOCK_SIZE, 0);
    }
}
