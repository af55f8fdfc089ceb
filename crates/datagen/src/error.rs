//! Error type for the synthetic workload generator.

#![expect(
    clippy::disallowed_types,
    reason = "the one place the crate's typed error implements `std::error::Error`; the ban is \
              on erasing errors behind `dyn Error` everywhere else"
)]

use std::error::Error;
use std::fmt;

/// Errors produced while constructing synthetic workloads.
#[derive(Debug, Clone, PartialEq)]
pub enum DatagenError {
    /// A scenario was built without any segments.
    EmptyScenario {
        /// Name the scenario would have carried.
        name: String,
    },
    /// A scenario segment had a non-positive (or non-finite) duration.
    InvalidSegmentDuration {
        /// Name the scenario would have carried.
        name: String,
        /// Index of the offending segment.
        index: usize,
        /// The rejected duration in seconds.
        duration_s: f64,
    },
    /// A [`FleetScenario`](crate::FleetScenario) was configured with invalid
    /// parameters (zero cameras, an overlap outside `[0, 1]`, or a bad
    /// offset step).
    InvalidFleetScenario {
        /// Explanation of what was wrong.
        reason: String,
    },
    /// A [`StreamConfig`](crate::StreamConfig) carried an invalid field
    /// (non-positive frame rate, zero feature dimension, or a negative or
    /// non-finite noise/shift magnitude).
    InvalidStreamConfig {
        /// Explanation of what was wrong.
        reason: String,
    },
}

impl fmt::Display for DatagenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatagenError::EmptyScenario { name } => {
                write!(f, "scenario '{name}': a scenario needs at least one segment")
            }
            DatagenError::InvalidSegmentDuration { name, index, duration_s } => {
                write!(
                    f,
                    "scenario '{name}': segment durations must be positive and finite \
                     (segment {index} has {duration_s})"
                )
            }
            DatagenError::InvalidFleetScenario { reason } => {
                write!(f, "invalid fleet scenario: {reason}")
            }
            DatagenError::InvalidStreamConfig { reason } => {
                write!(f, "invalid stream config: {reason}")
            }
        }
    }
}

impl Error for DatagenError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_scenario_and_the_offence() {
        let e = DatagenError::EmptyScenario { name: "bad".into() };
        assert!(e.to_string().contains("'bad'"));
        assert!(e.to_string().contains("at least one segment"));
        let e =
            DatagenError::InvalidSegmentDuration { name: "bad".into(), index: 2, duration_s: -1.0 };
        assert!(e.to_string().contains("segment 2"));
        assert!(e.to_string().contains("-1"));
        assert!(std::error::Error::source(&e).is_none());
        let e = DatagenError::InvalidFleetScenario { reason: "zero cameras".into() };
        assert!(e.to_string().contains("fleet scenario"));
        assert!(e.to_string().contains("zero cameras"));
    }
}
