//! The global metric registry.
//!
//! Metrics are created on first use and live for the remainder of the
//! process (`Box::leak`), so handles are `&'static` and the hot path
//! never touches the registry lock — only registration and snapshots
//! do.

use std::collections::BTreeMap;
use std::sync::{LazyLock, Mutex};

use crate::metrics::{Counter, Gauge, Histogram};

#[derive(Debug, Clone, Copy)]
pub(crate) enum Handle {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

impl Handle {
    fn kind(self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

static REGISTRY: LazyLock<Mutex<BTreeMap<&'static str, Handle>>> =
    LazyLock::new(|| Mutex::new(BTreeMap::new()));

fn register(name: &'static str, make: impl FnOnce() -> Handle, want: &'static str) -> Handle {
    let mut registry = REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let handle = *registry.entry(name).or_insert_with(make);
    assert!(
        handle.kind() == want,
        "probe metric {name:?} already registered as a {}, requested as a {want}",
        handle.kind(),
    );
    handle
}

/// The counter registered under `name`, created on first use. Call sites
/// use the probe macros, which check `name` against the
/// [`catalogue`](crate::catalogue); a direct call is a disallowed method.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn counter(name: &'static str) -> &'static Counter {
    match register(
        name,
        || Handle::Counter(Box::leak(Box::new(Counter::new(name)))),
        "counter",
    ) {
        Handle::Counter(c) => c,
        #[expect(
            clippy::unreachable,
            reason = "register() asserts the kind matches `want` one line up"
        )]
        _ => unreachable!("register checked the kind"),
    }
}

/// The gauge registered under `name`, created on first use. Call sites
/// use the probe macros, which check `name` against the
/// [`catalogue`](crate::catalogue); a direct call is a disallowed method.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn gauge(name: &'static str) -> &'static Gauge {
    match register(
        name,
        || Handle::Gauge(Box::leak(Box::new(Gauge::new(name)))),
        "gauge",
    ) {
        Handle::Gauge(g) => g,
        #[expect(
            clippy::unreachable,
            reason = "register() asserts the kind matches `want` one line up"
        )]
        _ => unreachable!("register checked the kind"),
    }
}

/// The histogram registered under `name`, created on first use. Call sites
/// use the probe macros, which check `name` against the
/// [`catalogue`](crate::catalogue); a direct call is a disallowed method.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric type.
pub fn histogram(name: &'static str) -> &'static Histogram {
    match register(
        name,
        || Handle::Histogram(Box::leak(Box::new(Histogram::new(name)))),
        "histogram",
    ) {
        Handle::Histogram(h) => h,
        #[expect(
            clippy::unreachable,
            reason = "register() asserts the kind matches `want` one line up"
        )]
        _ => unreachable!("register checked the kind"),
    }
}

/// Zeroes every registered metric in place (names stay registered, and
/// cached `&'static` handles at call sites stay valid).
pub fn reset() {
    let registry = REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for handle in registry.values() {
        match handle {
            Handle::Counter(c) => c.reset(),
            Handle::Gauge(g) => g.reset(),
            Handle::Histogram(h) => h.reset(),
        }
    }
}

/// Runs `f` over every registered metric, in name order.
pub(crate) fn for_each(mut f: impl FnMut(&'static str, Handle)) {
    let registry = REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for (name, handle) in registry.iter() {
        f(name, *handle);
    }
}

#[cfg(test)]
// The registry's own tests register names of their own.
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    /// `reset` zeroes *every* metric, so tests in this module must not
    /// interleave with each other.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        // The should_panic test poisons the lock by design.
        SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn same_name_returns_same_handle() {
        let _guard = serial();
        let a = counter("registry.same");
        let b = counter("registry.same");
        let before = a.get();
        a.inc();
        assert_eq!(b.get(), before + 1);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let _guard = serial();
        let _ = counter("registry.mismatch");
        let _ = gauge("registry.mismatch");
    }

    #[test]
    fn reset_zeroes_but_keeps_registration() {
        let _guard = serial();
        let c = counter("registry.reset");
        let h = histogram("registry.reset.hist");
        c.add(7);
        h.record(42);
        reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        // The old handle still works post-reset.
        c.inc();
        assert_eq!(counter("registry.reset").get(), 1);
    }
}
