//! Error type for the DNN substrate.

#![expect(
    clippy::disallowed_types,
    reason = "the one place the crate's typed error implements `std::error::Error`; the ban is \
              on erasing errors behind `dyn Error` everywhere else"
)]

use std::error::Error;
use std::fmt;

/// Errors produced when building or running networks.
#[derive(Debug, Clone, PartialEq)]
pub enum DnnError {
    /// A network configuration was invalid (for example zero-sized layers).
    InvalidConfig {
        /// Explanation of what was wrong.
        reason: String,
    },
    /// A batch of features did not match the network's input dimension.
    DimensionMismatch {
        /// Dimension the network expects.
        expected: usize,
        /// Dimension that was provided.
        got: usize,
    },
    /// Labels and features disagree on the number of samples, or a label is
    /// outside the class range.
    InvalidLabels {
        /// Explanation of what was wrong.
        reason: String,
    },
    /// An underlying tensor operation failed.
    Tensor(dacapo_tensor::TensorError),
}

impl fmt::Display for DnnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnnError::InvalidConfig { reason } => {
                write!(f, "invalid network configuration: {reason}")
            }
            DnnError::DimensionMismatch { expected, got } => {
                write!(f, "input dimension mismatch: network expects {expected}, got {got}")
            }
            DnnError::InvalidLabels { reason } => write!(f, "invalid labels: {reason}"),
            DnnError::Tensor(e) => write!(f, "tensor operation failed: {e}"),
        }
    }
}

impl Error for DnnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DnnError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dacapo_tensor::TensorError> for DnnError {
    fn from(e: dacapo_tensor::TensorError) -> Self {
        DnnError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DnnError::InvalidConfig { reason: "no hidden layers".into() };
        assert!(e.to_string().contains("no hidden layers"));
        let e = DnnError::DimensionMismatch { expected: 64, got: 32 };
        assert!(e.to_string().contains("64"));
        let e = DnnError::InvalidLabels { reason: "label 9 out of range".into() };
        assert!(e.to_string().contains("label 9"));
    }

    #[test]
    fn tensor_errors_convert_and_chain() {
        let inner = dacapo_tensor::TensorError::InvalidDimension { rows: 0, cols: 1 };
        let e: DnnError = inner.clone().into();
        assert!(matches!(&e, DnnError::Tensor(t) if *t == inner));
        assert!(std::error::Error::source(&e).is_some());
    }
}
