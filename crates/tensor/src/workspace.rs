//! Reusable scratch arenas for the packed GEMM kernels.
//!
//! The hot retraining path multiplies the same handful of small matrices
//! thousands of times per simulated run; allocating operand copies, panels,
//! and outputs on every call makes the allocator the bottleneck long before
//! the FPU. A [`Workspace`] owns every intermediate buffer the blocked
//! kernels in [`ops`](crate::ops) and [`quant`](crate::quant) need — the
//! padded B panel, the two quantised operands of an MX GEMM and the
//! transpose of MX `A·Bᵀ` — so steady-state kernel invocations allocate
//! nothing. An FP32 caller grows only the panel.
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

/// Reduction-dimension block size of the packed GEMM kernels: the register
/// tile folds this many rows of the right operand into its accumulators
/// before it stores them. Every output element still accumulates its
/// products in ascending reduction order, so the block size moves memory
/// traffic, never a result.
pub const K_BLOCK: usize = 64;

/// Scratch buffers reused across packed GEMM invocations.
///
/// One workspace serves any sequence of kernel calls of any shapes: buffers
/// grow to the high-water mark and stay there. A workspace carries no
/// numeric state between calls — every kernel fully overwrites the regions
/// it reads — so sharing one workspace across models or sessions cannot
/// change results.
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// The right operand's rows of the current reduction block (`kc × n`,
    /// row-major by reduction index) followed by zero padding, when the
    /// kernel cannot read them in place; for `A·Bᵀ`, `B`'s columns of the
    /// block, transposed.
    pub(crate) panel: Vec<f32>,
    /// An MX GEMM's left operand, quantised (row-major, same shape).
    pub(crate) qa: Vec<f32>,
    /// An MX GEMM's right operand, quantised (row-major, `k × n`).
    pub(crate) qb: Vec<f32>,
    /// MX `A·Bᵀ`'s `B`, transposed (`k × n`) before it is quantised.
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
        let Self { panel, qa, qb, staged } = self;
        [panel, qa, qb, staged].into_iter().map(Vec::capacity).sum::<usize>()
            * std::mem::size_of::<f32>()
    }
}
