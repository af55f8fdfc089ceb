//! Synthetic drifting video-analytics workload generator.
//!
//! The DaCapo paper evaluates on BDD100K driving videos, cropped into a
//! chronological object-classification stream and recut into scenarios whose
//! segments differ in *label distribution*, *time of day*, *location*, and
//! *weather* (Table II, Figure 8). Those attribute changes are the data
//! drifts the continuous-learning system must absorb.
//!
//! This crate reproduces that workload synthetically: each [`Scenario`] is a
//! timeline of [`Segment`]s with attributes; each frame of the 30 FPS stream
//! draws an object class from the segment's label distribution and a feature
//! vector from a class- and attribute-conditioned Gaussian. When the segment
//! attributes change, the feature distribution moves, so a student trained on
//! the old segment loses accuracy until it is retrained on freshly labeled
//! samples — exactly the dynamics the DaCapo allocator exploits.
//!
//! Beyond the eight Table II presets, [`FleetScenario`] derives N
//! *correlated* per-camera scenarios from any base scenario — controllable
//! attribute overlap plus per-camera drift-time offsets — the workload shape
//! the cross-camera sharing subsystem in `dacapo-core` exploits.
//! [`Scenario::attribute_overlap`] quantifies the pairwise correlation.
//!
//! # Examples
//!
//! ```
//! use dacapo_datagen::{Scenario, StreamConfig, FrameStream};
//!
//! let scenario = Scenario::s1();
//! let stream = FrameStream::new(&scenario, StreamConfig::default());
//! let frame = stream.frame_at(0);
//! assert_eq!(frame.sample.features.len(), StreamConfig::default().feature_dim);
//! ```

// Library code of this crate is in the strict clippy tier (see the root
// Cargo.toml): beyond the workspace-wide bans, no `.expect()`, no
// undocumented `Result`, no unordered maps / clock types / `dyn Error`.
#![cfg_attr(
    not(test),
    deny(clippy::expect_used, clippy::missing_errors_doc, clippy::disallowed_types)
)]

mod attributes;
mod classes;
mod error;
mod fleet;
mod noise;
mod scenario;
mod stream;

pub use attributes::{
    DriftKind, LabelDistribution, Location, SegmentAttributes, TimeOfDay, Weather,
};
pub use classes::{class_prior, ObjectClass, NUM_CLASSES};
pub use error::DatagenError;
pub use fleet::FleetScenario;
pub use scenario::{Scenario, Segment};
pub use stream::{CenterCache, Frame, FrameStream, Sample, StreamConfig, StreamCursor};
