//! Workspace facade for the DaCapo continuous-learning reproduction.
//!
//! This crate re-exports the member crates under one roof so downstream users
//! (and the repo's own integration tests and examples) can depend on a single
//! package. See [`core`] for the `Session`/`Cluster` execution engine.

pub use dacapo_accel as accel;
pub use dacapo_bench as bench;
pub use dacapo_core as core;
pub use dacapo_datagen as datagen;
pub use dacapo_dnn as dnn;
pub use dacapo_mx as mx;
pub use dacapo_telemetry as telemetry;
pub use dacapo_tensor as tensor;
