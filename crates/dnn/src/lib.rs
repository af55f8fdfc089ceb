//! DNN substrate for the DaCapo reproduction.
//!
//! This crate provides the two halves of "the models" that the DaCapo system
//! needs:
//!
//! 1. **A real, trainable student network** ([`Mlp`]) implemented from
//!    scratch: dense layers, ReLU, softmax cross-entropy, SGD, and optional
//!    MX fake-quantisation so inference can run at MX6 and retraining at MX9
//!    exactly as the paper configures the accelerator. The continuous-learning
//!    runtime retrains this network on the drifting synthetic stream. The
//!    training loss ([`loss::cross_entropy_into`]) takes its softmax `exp`
//!    through a vectorised kernel with a rounding test, bit-identical to libm's
//!    `expf`; libm still runs for the lanes the test leaves undecided (about
//!    0.2 %). It writes the gradient only: training reads no loss value.
//! 2. **The paper-model zoo** ([`zoo`]): layer-by-layer GEMM decompositions
//!    of the six models evaluated in the paper (ResNet18/34,
//!    WideResNet50/101, ViT-B/32, ViT-B/16) whose parameter counts and
//!    forward GFLOPs match Table III. These specs feed the performance
//!    estimator and the cycle-level accelerator simulator; they are *not*
//!    trained (Rust has no production DNN-training stack).
//!
//! The [`workload`] module converts a (student, teacher) pair plus
//! continuous-learning hyperparameters into the per-kernel FLOP/GEMM
//! workloads (inference, labeling, retraining) that Section III-B of the
//! paper characterises.

// Library code of this crate is in the strict clippy tier (see the root
// Cargo.toml): beyond the workspace-wide bans, no `.expect()`, no
// undocumented `Result`, no unordered maps / clock types / `dyn Error`.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::missing_errors_doc, clippy::disallowed_types)
)]

pub mod batch;
mod error;
pub mod layer;
pub mod loss;
mod mlp;
mod teacher;
pub mod workload;
pub mod zoo;

pub use batch::{train_stacked, StackedJob, TrainScratch};
pub use error::DnnError;
pub use layer::{Activation, Dense};
pub use mlp::{Mlp, MlpConfig, QuantMode};
pub use teacher::{CloudTeacher, TeacherOracle};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, DnnError>;
