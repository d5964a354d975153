//! Cooperative cancellation: a cloneable token carrying a deadline and a
//! shared shutdown flag, polled at slice/sample granularity by the
//! long-running loops (exhaustive search, Monte Carlo) so a sweep stops
//! within one slice of the deadline instead of running to completion.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a token reports cancelled. Deadline wins ties: a request that is
/// both expired and shutting down is the *client's* timeout first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The token's deadline passed.
    Deadline,
    /// The shared shutdown flag was raised.
    Shutdown,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Deadline => write!(f, "deadline exceeded"),
            Self::Shutdown => write!(f, "shutting down"),
        }
    }
}

/// A cooperative cancellation token. Cheap to clone (the flag is shared);
/// cheap to poll (an `Instant` compare and a relaxed load). Work that
/// holds one checks it at natural pause points — per search slice, per
/// Monte Carlo sample — and unwinds with a typed error when it reports
/// cancelled.
#[derive(Debug, Clone)]
pub struct CancelToken {
    deadline: Option<Instant>,
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A token that never cancels (unless [`CancelToken::cancel`] is
    /// called on it or a clone).
    #[must_use]
    pub fn never() -> Self {
        Self {
            deadline: None,
            flag: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A token that cancels once `deadline` passes.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            deadline: Some(deadline),
            flag: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A token observing an external shutdown flag (the serve layer links
    /// every in-flight job to the server's flag) plus an optional
    /// per-request deadline.
    #[must_use]
    pub fn linked(deadline: Option<Instant>, flag: Arc<AtomicBool>) -> Self {
        Self { deadline, flag }
    }

    /// The deadline, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Polls the token. Deadline is checked before the flag so an expired
    /// request reports [`CancelReason::Deadline`] even during shutdown.
    #[must_use]
    pub fn cancelled(&self) -> Option<CancelReason> {
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(CancelReason::Deadline);
        }
        if self.flag.load(Ordering::Acquire) {
            return Some(CancelReason::Shutdown);
        }
        None
    }

    /// `true` if the token reports any cancellation.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancelled().is_some()
    }

    /// Raises the shared flag: every clone of this token reports
    /// [`CancelReason::Shutdown`] from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::never()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn never_token_is_never_cancelled_until_cancel() {
        let token = CancelToken::never();
        assert_eq!(token.cancelled(), None);
        let clone = token.clone();
        token.cancel();
        assert_eq!(clone.cancelled(), Some(CancelReason::Shutdown));
    }

    #[test]
    fn expired_deadline_reports_deadline_even_when_shut_down() {
        let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        token.cancel();
        assert_eq!(
            token.cancelled(),
            Some(CancelReason::Deadline),
            "deadline outranks shutdown"
        );
    }

    #[test]
    fn future_deadline_is_not_yet_cancelled() {
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert_eq!(token.cancelled(), None);
    }
}
