//! Cooperative cancellation: a cloneable token carrying a deadline and a
//! shared shutdown flag, polled at slice/sample granularity by the
//! long-running loops (exhaustive search, Monte Carlo) so a sweep stops
//! within one slice of the deadline instead of running to completion;
//! and [`ordered_map`], the scoped worker pool those per-item loops run
//! on.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// Maps `f` over `items` on `min(available_parallelism, items.len())`
/// scoped workers and returns the results in input order.
///
/// The calling thread is one of the workers, so a one-item call spawns
/// nothing. Workers claim indices one at a time from a shared counter,
/// adopt the caller's [`TraceContext`](sram_probe::trace::TraceContext)
/// (their spans nest under the caller's open span) and poll `cancel`
/// before each item; a fired token fails that item with
/// `E::from(reason)`. Once an item fails, every worker stops at its
/// next item. Indices are claimed in order, so every index below a
/// failing one has run: the error returned is that of the lowest
/// failing index, the one a serial loop over `items` returns. A panic
/// in `f` propagates to the caller.
///
/// # Errors
///
/// The error of the lowest failing index.
pub fn ordered_map<T, R, E>(
    items: &[T],
    cancel: &CancelToken,
    f: impl Fn(&T) -> Result<R, E> + Sync,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send + From<CancelReason>,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(items.len());
    // Both atomics only steer the work; results travel back through the
    // joins, which synchronize, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let work = || {
        let mut done = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                break;
            };
            let result = match cancel.cancelled() {
                Some(reason) => Err(E::from(reason)),
                None => f(item),
            };
            match result {
                Ok(value) => done.push((index, value)),
                Err(e) => {
                    stop.store(true, Ordering::Relaxed);
                    return (done, Some((index, e)));
                }
            }
        }
        (done, None)
    };
    let context = sram_probe::trace::TraceContext::current();
    let parts = std::thread::scope(|scope| {
        // A worker the OS will not start leaves its items to the others.
        let spawned: Vec<_> = (1..workers)
            .filter_map(|_| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, || {
                        let _adopt = sram_probe::trace::adopt(&context);
                        work()
                    })
                    .ok()
            })
            .collect();
        let mut parts = vec![work()];
        parts.extend(spawned.into_iter().map(|worker| {
            worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        parts
    });

    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut failed: Option<(usize, E)> = None;
    for (values, error) in parts {
        for (index, value) in values {
            slots[index] = Some(value);
        }
        if let Some((index, e)) = error {
            if failed.as_ref().is_none_or(|(lowest, _)| index < *lowest) {
                failed = Some((index, e));
            }
        }
    }
    match failed {
        Some((_, e)) => Err(e),
        // With no failure every index ran, so every slot is filled.
        None => Ok(slots.into_iter().flatten().collect()),
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

    #[derive(Debug, PartialEq)]
    enum MapError {
        Item(usize),
        Cancelled(CancelReason),
    }

    impl From<CancelReason> for MapError {
        fn from(reason: CancelReason) -> Self {
            Self::Cancelled(reason)
        }
    }

    /// Sleeps longer on earlier items, so later ones finish first.
    fn slow_early(i: usize, len: usize) {
        std::thread::sleep(Duration::from_micros(50 * (len - i) as u64));
    }

    #[test]
    fn map_returns_results_in_input_order() {
        let items: Vec<usize> = (0..40).collect();
        let out = ordered_map(&items, &CancelToken::never(), |&i| {
            slow_early(i, items.len());
            Ok::<_, MapError>(i * 3)
        })
        .unwrap();
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
        let none: Vec<usize> = ordered_map(&[] as &[usize], &CancelToken::never(), |&i| {
            Ok::<_, MapError>(i)
        })
        .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn map_returns_the_lowest_failing_index() {
        // Item 3 fails only once item 30 has failed (or after 5 s on
        // one core, where nothing else runs item 30); a serial loop
        // reports item 3.
        let items: Vec<usize> = (0..40).collect();
        let thirty_failed = AtomicBool::new(false);
        let err = ordered_map(&items, &CancelToken::never(), |&i| {
            if i == 3 {
                let give_up = Instant::now() + Duration::from_secs(5);
                while !thirty_failed.load(Ordering::SeqCst) && Instant::now() < give_up {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            if i == 30 {
                thirty_failed.store(true, Ordering::SeqCst);
            }
            match i {
                3 | 30 => Err(MapError::Item(i)),
                _ => Ok(i),
            }
        })
        .unwrap_err();
        assert_eq!(err, MapError::Item(3));
    }

    #[test]
    fn map_stops_claiming_items_after_a_failure() {
        // Serially the 1,000 items would take 5 s.
        let items: Vec<usize> = (0..1000).collect();
        let ran = AtomicUsize::new(0);
        let err = ordered_map(&items, &CancelToken::never(), |&i| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                Err(MapError::Item(0))
            } else {
                std::thread::sleep(Duration::from_millis(5));
                Ok(i)
            }
        })
        .unwrap_err();
        assert_eq!(err, MapError::Item(0));
        let ran = ran.load(Ordering::Relaxed);
        assert!(ran < 50, "{ran} items ran, though item 0 failed at once");
    }

    #[test]
    fn map_polls_the_token_before_every_item() {
        let expired = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let ran = AtomicUsize::new(0);
        let err = ordered_map(&[1, 2, 3, 4], &expired, |&i| {
            ran.fetch_add(1, Ordering::Relaxed);
            Ok::<_, MapError>(i)
        })
        .unwrap_err();
        assert_eq!(err, MapError::Cancelled(CancelReason::Deadline));
        assert_eq!(
            ran.load(Ordering::Relaxed),
            0,
            "no item runs on a fired token"
        );

        // Fired mid-run: the items before the cancel completed, the
        // first item polled after it fails the map.
        let token = CancelToken::never();
        let items: Vec<usize> = (0..200).collect();
        let err = ordered_map(&items, &token, |&i| {
            if i == 5 {
                token.cancel();
            }
            Ok::<_, MapError>(i)
        })
        .unwrap_err();
        assert_eq!(err, MapError::Cancelled(CancelReason::Shutdown));
    }

    #[test]
    fn one_item_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let out = ordered_map(&[7], &CancelToken::never(), |&i| {
            assert_eq!(std::thread::current().id(), caller);
            Ok::<_, MapError>(i)
        })
        .unwrap();
        assert_eq!(out, vec![7]);
    }
}
