//! Cell-characterization error type.

use core::fmt;
use sram_faults::CancelReason;
use sram_spice::SpiceError;

/// Errors produced during cell characterization.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CellError {
    /// An underlying circuit simulation failed.
    Simulation(SpiceError),
    /// A measurement could not be extracted from the simulation result
    /// (e.g. a waveform never crossed the measurement threshold).
    MeasurementFailed {
        /// Which measurement failed.
        what: &'static str,
        /// Why it failed.
        reason: String,
    },
    /// A bias/assist configuration is outside the modeled range.
    InvalidBias(String),
    /// A search found no range that holds the quantity it looks for.
    BracketingFailed {
        /// Which search failed.
        what: &'static str,
    },
    /// A cooperative cancellation token fired mid-run (deadline or
    /// shutdown); the work was abandoned, not completed.
    Cancelled(CancelReason),
}

impl CellError {
    /// Whether retrying could plausibly succeed: transient simulation
    /// failures and threshold-miss measurements are retry candidates;
    /// structural/config errors and cancellations are not.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        match self {
            CellError::Simulation(e) => e.is_transient(),
            CellError::MeasurementFailed { .. } => true,
            _ => false,
        }
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::Simulation(e) => write!(f, "circuit simulation failed: {e}"),
            CellError::MeasurementFailed { what, reason } => {
                write!(f, "could not measure {what}: {reason}")
            }
            CellError::InvalidBias(msg) => write!(f, "invalid bias configuration: {msg}"),
            CellError::BracketingFailed { what } => {
                write!(f, "search could not bracket {what}")
            }
            CellError::Cancelled(reason) => write!(f, "characterization cancelled: {reason}"),
        }
    }
}

impl std::error::Error for CellError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CellError::Simulation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpiceError> for CellError {
    fn from(e: SpiceError) -> Self {
        CellError::Simulation(e)
    }
}

impl From<CancelReason> for CellError {
    fn from(reason: CancelReason) -> Self {
        CellError::Cancelled(reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn wraps_spice_errors_with_source() {
        let e = CellError::from(SpiceError::SingularMatrix);
        assert!(e.to_string().contains("simulation"));
        assert!(e.source().is_some());
    }

    #[test]
    fn measurement_failure_is_descriptive() {
        let e = CellError::MeasurementFailed {
            what: "write delay",
            reason: "Q never met QB".into(),
        };
        assert!(e.to_string().contains("write delay"));
    }
}
