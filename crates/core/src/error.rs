//! Framework error type.

use core::fmt;
use sram_array::ArrayError;
use sram_cell::CellError;
use sram_faults::CancelReason;

/// Errors produced by the co-optimization framework.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CooptError {
    /// The array model failed to evaluate.
    Array(ArrayError),
    /// A cell characterization failed.
    Cell(CellError),
    /// No candidate in the design space satisfied the yield constraint.
    Infeasible {
        /// The capacity being optimized, in bits.
        capacity_bits: usize,
        /// Number of candidates examined.
        examined: usize,
    },
    /// The design space contains no candidates at all for this capacity.
    EmptyDesignSpace {
        /// The capacity being optimized, in bits.
        capacity_bits: usize,
    },
    /// The rail-minimization search could not satisfy a margin
    /// requirement within its voltage range.
    RailSearchFailed {
        /// Which rail failed (`"V_DDC"` or `"V_WL"`).
        rail: &'static str,
    },
    /// A cooperative cancellation token fired mid-search (deadline or
    /// shutdown); the sweep was abandoned at a slice boundary.
    Cancelled(CancelReason),
}

impl CooptError {
    /// Whether retrying the same call could plausibly succeed — only
    /// transient characterization failures qualify; infeasibility,
    /// empty spaces, and cancellations are final.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, CooptError::Cell(e) if e.is_transient())
    }

    /// The cancellation reason, when this error is a cancellation at any
    /// layer (the serve layer maps `Deadline` and `Shutdown` to distinct
    /// wire statuses).
    #[must_use]
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        match self {
            CooptError::Cancelled(reason) | CooptError::Cell(CellError::Cancelled(reason)) => {
                Some(*reason)
            }
            _ => None,
        }
    }
}

impl fmt::Display for CooptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CooptError::Array(e) => write!(f, "array model failed: {e}"),
            CooptError::Cell(e) => write!(f, "cell characterization failed: {e}"),
            CooptError::Infeasible {
                capacity_bits,
                examined,
            } => write!(
                f,
                "no feasible design for {capacity_bits} bits after examining {examined} candidates"
            ),
            CooptError::EmptyDesignSpace { capacity_bits } => {
                write!(f, "design space is empty for {capacity_bits} bits")
            }
            CooptError::RailSearchFailed { rail } => {
                write!(
                    f,
                    "could not find a {rail} level meeting the yield requirement"
                )
            }
            CooptError::Cancelled(reason) => write!(f, "search cancelled: {reason}"),
        }
    }
}

impl std::error::Error for CooptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CooptError::Array(e) => Some(e),
            CooptError::Cell(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArrayError> for CooptError {
    fn from(e: ArrayError) -> Self {
        CooptError::Array(e)
    }
}

impl From<CellError> for CooptError {
    fn from(e: CellError) -> Self {
        CooptError::Cell(e)
    }
}

impl From<CancelReason> for CooptError {
    fn from(reason: CancelReason) -> Self {
        CooptError::Cancelled(reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_context() {
        let e = CooptError::Infeasible {
            capacity_bits: 8192,
            examined: 1000,
        };
        assert!(e.to_string().contains("8192"));
        assert!(e.to_string().contains("1000"));
    }

    #[test]
    fn conversions_from_layer_errors() {
        use std::error::Error as _;
        let e = CooptError::from(CellError::BracketingFailed { what: "wm" });
        assert!(e.source().is_some());
    }
}
