//! Minimal dense matrix library used by the DaCapo DNN substrate.
//!
//! The continuous-learning runtime only needs 2-D tensors (every DNN layer is
//! lowered to GEMMs), so this crate provides a small, dependency-light,
//! row-major [`Matrix`] type with:
//!
//! * the usual elementwise and reduction operations ([`ops`]),
//! * seeded initialisers for reproducible experiments ([`init`]),
//! * MX-quantised matrix multiplication ([`quant`]) that emulates running a
//!   GEMM on the DaCapo accelerator at a given [`dacapo_mx::MxPrecision`].
//!
//! # Examples
//!
//! ```
//! use dacapo_tensor::{Matrix, ops};
//!
//! # fn main() -> Result<(), dacapo_tensor::TensorError> {
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
//! let b = Matrix::identity(2);
//! let c = ops::matmul(&a, &b)?;
//! assert_eq!(c, a);
//! # Ok(())
//! # }
//! ```

mod error;
pub mod init;
mod matrix;
pub mod ops;
pub mod quant;
mod workspace;

pub use error::TensorError;
pub use matrix::Matrix;
pub use workspace::{Workspace, K_BLOCK};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
