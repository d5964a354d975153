//! Error type shared by the protocol, cache, engine, and server layers.

use std::fmt;

use sram_faults::CancelReason;

/// Anything that can go wrong between a request line and its response.
#[derive(Debug)]
pub enum ServeError {
    /// The request line is not valid protocol JSON.
    Protocol(String),
    /// The request parsed but names an invalid or unsupported query.
    InvalidQuery(String),
    /// The co-optimization layer failed to evaluate the query.
    Coopt(sram_coopt::CooptError),
    /// The accept queue is full — the 429-style backpressure signal;
    /// the client should retry later.
    Busy,
    /// The request's deadline passed — while queued, or mid-search via
    /// the cancellation token.
    DeadlineExceeded,
    /// The server is draining and no longer accepts new work.
    ShuttingDown,
    /// A worker panicked while holding this request; the panic was
    /// isolated, the worker respawned, and the client gets this typed
    /// reply instead of a hung channel.
    Internal(String),
    /// A socket operation failed.
    Io(std::io::Error),
    /// The remote server reported an error (client side).
    Remote(String),
}

impl ServeError {
    /// Whether the client (or the engine's own bounded-retry layer) may
    /// reasonably try again: congestion, isolated worker panics, and
    /// transient characterization failures qualify; malformed requests,
    /// deadlines, and shutdown do not.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        match self {
            ServeError::Busy | ServeError::Internal(_) => true,
            ServeError::Coopt(e) => e.is_transient(),
            _ => false,
        }
    }

    /// Whether this is a socket read that ran out its timeout.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(self, ServeError::Io(e)
            if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut))
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServeError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            ServeError::Coopt(e) => write!(f, "evaluation failed: {e}"),
            ServeError::Busy => write!(f, "server busy: accept queue full, retry later"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Internal(m) => write!(f, "internal server error: {m}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Remote(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Coopt(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sram_coopt::CooptError> for ServeError {
    fn from(e: sram_coopt::CooptError) -> Self {
        // A cancellation that bubbled up from the search or Monte Carlo
        // loop is not an evaluation failure — surface it as the typed
        // deadline/shutdown status the client can act on.
        match e.cancel_reason() {
            Some(CancelReason::Deadline) => ServeError::DeadlineExceeded,
            Some(CancelReason::Shutdown) => ServeError::ShuttingDown,
            None => ServeError::Coopt(e),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// The wire status string a [`ServeError`] maps to. Retryable congestion
/// (`"busy"`), lifecycle conditions (`"shutting_down"`,
/// `"deadline_exceeded"`), and isolated worker panics (`"internal"`) are
/// distinguishable from plain `"error"` so clients can react without
/// parsing messages.
#[must_use]
pub fn wire_status(error: &ServeError) -> &'static str {
    match error {
        ServeError::Busy => "busy",
        ServeError::ShuttingDown => "shutting_down",
        ServeError::DeadlineExceeded => "deadline_exceeded",
        ServeError::Internal(_) => "internal",
        _ => "error",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ServeError::Busy.to_string().contains("retry"));
        assert!(ServeError::InvalidQuery("bad flavor".into())
            .to_string()
            .contains("bad flavor"));
        assert!(ServeError::Internal("worker panicked".into())
            .to_string()
            .contains("internal"));
    }

    #[test]
    fn wire_status_partitions() {
        assert_eq!(wire_status(&ServeError::Busy), "busy");
        assert_eq!(wire_status(&ServeError::ShuttingDown), "shutting_down");
        assert_eq!(
            wire_status(&ServeError::DeadlineExceeded),
            "deadline_exceeded"
        );
        assert_eq!(wire_status(&ServeError::Internal("x".into())), "internal");
        assert_eq!(wire_status(&ServeError::Protocol("bad".into())), "error");
    }

    #[test]
    fn retryability_partitions() {
        assert!(ServeError::Busy.is_retryable());
        assert!(ServeError::Internal("panic".into()).is_retryable());
        assert!(!ServeError::DeadlineExceeded.is_retryable());
        assert!(!ServeError::ShuttingDown.is_retryable());
        assert!(!ServeError::Protocol("bad".into()).is_retryable());
        let transient = ServeError::Coopt(sram_coopt::CooptError::Cell(
            sram_cell::CellError::MeasurementFailed {
                what: "rsnm",
                reason: "injected".into(),
            },
        ));
        assert!(transient.is_retryable());
        let fatal =
            ServeError::Coopt(sram_coopt::CooptError::EmptyDesignSpace { capacity_bits: 64 });
        assert!(!fatal.is_retryable());
    }

    #[test]
    fn cancellations_convert_to_typed_lifecycle_errors() {
        use sram_faults::CancelReason;
        let deadline: ServeError = sram_coopt::CooptError::Cancelled(CancelReason::Deadline).into();
        assert!(matches!(deadline, ServeError::DeadlineExceeded));
        let shutdown: ServeError = sram_coopt::CooptError::Cancelled(CancelReason::Shutdown).into();
        assert!(matches!(shutdown, ServeError::ShuttingDown));
        let mc_deadline: ServeError =
            sram_coopt::CooptError::Cell(sram_cell::CellError::Cancelled(CancelReason::Deadline))
                .into();
        assert!(matches!(mc_deadline, ServeError::DeadlineExceeded));
    }
}
