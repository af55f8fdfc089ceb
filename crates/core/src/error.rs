//! Error type for the continuous-learning runtime.

#![expect(
    clippy::disallowed_types,
    reason = "the one place the crate's typed error implements `std::error::Error`; the ban is \
              on erasing errors behind `dyn Error` everywhere else"
)]

use std::error::Error;
use std::fmt;

/// Errors produced by the continuous-learning runtime and simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A system configuration was invalid.
    InvalidConfig {
        /// Explanation of what was wrong.
        reason: String,
    },
    /// A camera was denied admission to a cluster at its capacity bound
    /// (see [`Cluster::capacity_per_accelerator`] and
    /// [`AdmissionPolicy::Reject`]).
    ///
    /// [`Cluster::capacity_per_accelerator`]: crate::Cluster::capacity_per_accelerator
    /// [`AdmissionPolicy::Reject`]: crate::AdmissionPolicy::Reject
    AdmissionRejected {
        /// Name of the rejected camera.
        camera: String,
        /// Why the camera could not be admitted.
        reason: String,
    },
    /// A session snapshot could not be restored (unsupported format version,
    /// undecodable scheduler state, or inconsistent captured state).
    Snapshot {
        /// Why the snapshot was rejected.
        reason: String,
    },
    /// A plugin (arbiter, scheduler, platform, …) panicked while a worker
    /// thread of [`Cluster::run`](crate::Cluster::run) was advancing an
    /// accelerator; the panic is contained and the run fails with this error.
    WorkerPanicked {
        /// Index of the accelerator the worker was advancing.
        accelerator: usize,
    },
    /// The student network failed.
    Dnn(dacapo_dnn::DnnError),
    /// The accelerator model failed (for example an infeasible allocation).
    Accel(dacapo_accel::AccelError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig { reason } => {
                write!(f, "invalid system configuration: {reason}")
            }
            CoreError::AdmissionRejected { camera, reason } => {
                write!(f, "admission rejected for camera '{camera}': {reason}")
            }
            CoreError::Snapshot { reason } => {
                write!(f, "cannot restore session snapshot: {reason}")
            }
            CoreError::WorkerPanicked { accelerator } => {
                write!(f, "a worker thread panicked while advancing accelerator {accelerator}")
            }
            CoreError::Dnn(e) => write!(f, "student model error: {e}"),
            CoreError::Accel(e) => write!(f, "accelerator model error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Dnn(e) => Some(e),
            CoreError::Accel(e) => Some(e),
            CoreError::InvalidConfig { .. }
            | CoreError::AdmissionRejected { .. }
            | CoreError::Snapshot { .. }
            | CoreError::WorkerPanicked { .. } => None,
        }
    }
}

impl From<dacapo_dnn::DnnError> for CoreError {
    fn from(e: dacapo_dnn::DnnError) -> Self {
        CoreError::Dnn(e)
    }
}

impl From<dacapo_accel::AccelError> for CoreError {
    fn from(e: dacapo_accel::AccelError) -> Self {
        CoreError::Accel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources_are_wired_up() {
        let e = CoreError::InvalidConfig { reason: "empty scenario".into() };
        assert!(e.to_string().contains("empty scenario"));
        assert!(std::error::Error::source(&e).is_none());

        let inner = dacapo_accel::AccelError::Infeasible { reason: "too fast".into() };
        let e: CoreError = inner.into();
        assert!(e.to_string().contains("too fast"));
        assert!(std::error::Error::source(&e).is_some());

        let inner = dacapo_dnn::DnnError::InvalidLabels { reason: "bad".into() };
        let e: CoreError = inner.into();
        assert!(std::error::Error::source(&e).is_some());

        let e = CoreError::AdmissionRejected { camera: "cam-7".into(), reason: "full".into() };
        assert!(e.to_string().contains("cam-7"));
        assert!(e.to_string().contains("admission rejected"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
