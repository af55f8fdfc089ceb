//! Error type for MX encoding and arithmetic.

use std::error::Error;
use std::fmt;

/// Errors produced when encoding values into MX format or operating on
/// MX-encoded data.
#[derive(Debug, Clone, PartialEq)]
pub enum MxError {
    /// A non-finite (NaN or infinite) value was encountered at `index`.
    NonFiniteInput {
        /// Position of the offending value in the input slice.
        index: usize,
        /// The offending value.
        value: f32,
    },
    /// Two vectors that must have the same logical length did not.
    LengthMismatch {
        /// Length of the left-hand operand.
        left: usize,
        /// Length of the right-hand operand.
        right: usize,
    },
    /// Two operands were encoded at different precisions where a single
    /// precision is required.
    PrecisionMismatch {
        /// Precision of the left-hand operand.
        left: crate::MxPrecision,
        /// Precision of the right-hand operand.
        right: crate::MxPrecision,
    },
    /// An operation that requires at least one element received none.
    EmptyInput,
}

impl MxError {
    /// The [`MxError::NonFiniteInput`] for the first NaN or infinity in
    /// `values`, which start `offset` elements into the caller's input.
    pub(crate) fn first_non_finite(values: &[f32], offset: usize) -> Self {
        let (index, &value) = values
            .iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite())
            .expect("called for a block whose shared exponent is the non-finite field");
        MxError::NonFiniteInput { index: offset + index, value }
    }
}

impl fmt::Display for MxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MxError::NonFiniteInput { index, value } => {
                write!(f, "non-finite value {value} at index {index}")
            }
            MxError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: left has {left} elements, right has {right}")
            }
            MxError::PrecisionMismatch { left, right } => {
                write!(f, "precision mismatch: left is {left}, right is {right}")
            }
            MxError::EmptyInput => write!(f, "input contains no elements"),
        }
    }
}

impl Error for MxError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MxPrecision;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = MxError::NonFiniteInput { index: 3, value: f32::NAN };
        assert!(e.to_string().contains("index 3"));
        let e = MxError::LengthMismatch { left: 4, right: 8 };
        assert_eq!(e.to_string(), "length mismatch: left has 4 elements, right has 8");
        let e = MxError::PrecisionMismatch { left: MxPrecision::Mx4, right: MxPrecision::Mx9 };
        assert!(e.to_string().contains("MX4"));
        assert!(e.to_string().contains("MX9"));
        assert_eq!(MxError::EmptyInput.to_string(), "input contains no elements");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MxError>();
    }
}
