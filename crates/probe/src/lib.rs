//! Workspace-wide instrumentation: named counters, gauges, and timing
//! spans feeding log-linear histograms, behind a global registry.
//!
//! The crate is std-only (atomics, [`std::time::Instant`], one mutex on
//! the registration slow path) so every layer of the workspace can
//! depend on it without pulling in an ecosystem.
//!
//! # Verbosity levels
//!
//! Instrumentation is **off by default**. The `SRAM_PROBE` environment
//! variable selects the level at startup, and [`set_level`] overrides
//! it at runtime (used by `reproduce --probe-json`, which must collect
//! metrics even when the variable is unset):
//!
//! | `SRAM_PROBE` | [`Level`] | effect |
//! | --- | --- | --- |
//! | unset / `0` | [`Level::Off`] | every probe macro is a branch-and-skip |
//! | `1` | [`Level::Summary`] | counters, gauges, and call-granularity spans |
//! | `2` | [`Level::Detail`] | adds high-frequency probes (per-iteration counters, per-solve histograms) |
//!
//! # Recording
//!
//! Call sites use the `probe_*` macros, which cache their registry
//! handle in a per-site `OnceLock` so the steady-state cost is one
//! relaxed atomic load (the level check) plus, when enabled, one
//! relaxed RMW. Every name is checked against the [`catalogue`] at
//! compile time:
//!
//! ```
//! use sram_probe::{probe_add, probe_inc, probe_span};
//!
//! sram_probe::set_level(sram_probe::Level::Summary);
//! probe_inc!("spice.dc_solves");
//! probe_add!("spice.newton_iterations", 3);
//! {
//!     let _span = probe_span!("spice.dc_solve_ns");
//!     // ... timed region ...
//! }
//! let snap = sram_probe::snapshot();
//! assert_eq!(snap.counters["spice.dc_solves"], 1);
//! assert_eq!(snap.counters["spice.newton_iterations"], 3);
//! assert_eq!(snap.histograms["spice.dc_solve_ns"].count, 1);
//! # sram_probe::set_level(sram_probe::Level::Off);
//! ```
//!
//! A name missing from the catalogue, recorded as the wrong kind, or
//! recorded from another workspace library does not compile:
//!
//! ```compile_fail
//! sram_probe::probe_gauge!("spice.dc_solves", 1.0); // catalogued as a counter
//! ```
//!
//! Metrics that must count with probes off take an ungated handle from
//! [`probe_handle!`]; `SRAM_*` variables are read through [`env_var!`].
//!
//! # Reading
//!
//! [`snapshot`] copies the registry into a plain [`Snapshot`], which
//! can be [diffed](Snapshot::diff) against an earlier snapshot,
//! [rendered](Snapshot::render_table) as an aligned table, or
//! [exported](Snapshot::to_json) as JSON (hand-rolled serializer —
//! this workspace links no serialization ecosystem). [`reset`] zeroes
//! every registered metric in place. The [`json`] module is the
//! workspace's JSON codec: the value type the serve wire protocol
//! parses with, and the string escaper every JSON writer in this crate
//! uses.
//!
//! # Tracing
//!
//! Aggregates say *how much*; the [`trace`] module says *where*:
//! hierarchical begin/end events, exported as Chrome trace JSON, a
//! text flame summary, or a per-request span tree. Tracing has its own
//! switches so it can run with metrics off and vice versa: process-wide
//! (`SRAM_TRACE`, [`trace::set_tracing`]) every thread records into
//! its own ring buffer, read back with [`trace::capture`]; a
//! [`trace::Scope`] records one request, on the threads working for it,
//! into a buffer of its own. [`trace_span!`] composes with
//! [`probe_span!`]: the former records structure, the latter feeds the
//! duration histogram. Under load, [`trace::sampled`] picks a seeded,
//! deterministic fraction of roots to trace (`SRAM_TRACE_SAMPLE`) so a
//! busy server keeps representative traces.
//!
//! # Telemetry and logging
//!
//! The [`telemetry`] module turns point-in-time snapshots into a
//! windowed time series: a background sampler stores per-interval
//! deltas in a bounded ring (`SRAM_TELEMETRY_WINDOW` /
//! `SRAM_TELEMETRY_SLOTS`), with p50/p90/p99 read off the merged
//! histogram windows and a Prometheus-style text exposition. The [`log`] module writes structured JSON-lines events
//! (`SRAM_LOG=path`, leveled) for rare operator-relevant moments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

pub mod catalogue;
pub mod hash;
pub mod json;
mod level;
pub mod log;
mod metrics;
mod registry;
#[cfg(test)]
mod rules;
mod snapshot;
pub mod telemetry;
pub mod trace;

pub use catalogue::EnvVar;
pub use level::{enabled, level, set_level, Level};
pub use metrics::{Counter, Gauge, Histogram, Span, MAX_QUANTILE_RELATIVE_ERROR};
pub use registry::{counter, gauge, histogram, reset};
pub use snapshot::{snapshot, HistogramSnapshot, Snapshot};

/// The `&'static` handle of a catalogued probe, looked up once per
/// call site and never gated by the level: for metrics that must count
/// with probes off, reads of a crate's own metrics, and span names
/// emitted as intervals.
///
/// | form | returns |
/// | --- | --- |
/// | `probe_handle!(counter "name")` | `&'static` [`Counter`] |
/// | `probe_handle!(gauge "name")` | `&'static` [`Gauge`] |
/// | `probe_handle!(histogram "name")` | `&'static` [`Histogram`] |
/// | `probe_handle!(trace "name")` | the interned span-name id (`u32`) |
///
/// Like every probe macro it checks the name against
/// [`catalogue::PROBES`] at compile time (see [`catalogue`]).
#[macro_export]
macro_rules! probe_handle {
    (counter $name:expr) => {
        $crate::__probe_handle!($name, Counter, &'static $crate::Counter, $crate::counter)
    };
    (gauge $name:expr) => {
        $crate::__probe_handle!($name, Gauge, &'static $crate::Gauge, $crate::gauge)
    };
    (histogram $name:expr) => {
        $crate::__probe_handle!(
            $name,
            Histogram,
            &'static $crate::Histogram,
            $crate::histogram
        )
    };
    (trace $name:expr) => {
        $crate::__probe_handle!($name, Trace, u32, $crate::trace::intern)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __probe_handle {
    ($name:expr, $kind:ident, $handle:ty, $make:path) => {{
        const _: () = $crate::catalogue::check(
            $name,
            $crate::catalogue::Kind::$kind,
            ::core::module_path!(),
        );
        static HANDLE: ::std::sync::OnceLock<$handle> = ::std::sync::OnceLock::new();
        #[allow(clippy::disallowed_methods)]
        let handle = *HANDLE.get_or_init(|| $make($name));
        handle
    }};
}

/// Increments a named counter by one.
///
/// `probe_inc!("name")` records at [`Level::Summary`];
/// `probe_inc!(detail "name")` only at [`Level::Detail`].
#[macro_export]
macro_rules! probe_inc {
    (detail $name:expr) => {
        $crate::probe_add!(detail $name, 1u64)
    };
    ($name:expr) => {
        $crate::probe_add!($name, 1u64)
    };
}

/// Adds an amount to a named counter.
///
/// `probe_add!("name", n)` records at [`Level::Summary`];
/// `probe_add!(detail "name", n)` only at [`Level::Detail`].
#[macro_export]
macro_rules! probe_add {
    (detail $name:expr, $n:expr) => {{
        if $crate::enabled($crate::Level::Detail) {
            $crate::probe_handle!(counter $name).add($n as u64);
        }
    }};
    ($name:expr, $n:expr) => {{
        if $crate::enabled($crate::Level::Summary) {
            $crate::probe_handle!(counter $name).add($n as u64);
        }
    }};
}

/// Sets a named gauge to an `f64` value (last write wins).
#[macro_export]
macro_rules! probe_gauge {
    ($name:expr, $value:expr) => {{
        if $crate::enabled($crate::Level::Summary) {
            $crate::probe_handle!(gauge $name).set($value as f64);
        }
    }};
}

/// Records a value into a named log-linear [`Histogram`].
///
/// `probe_record!("name", v)` records at [`Level::Summary`];
/// `probe_record!(detail "name", v)` only at [`Level::Detail`].
#[macro_export]
macro_rules! probe_record {
    (detail $name:expr, $value:expr) => {{
        if $crate::enabled($crate::Level::Detail) {
            $crate::probe_handle!(histogram $name).record($value as u64);
        }
    }};
    ($name:expr, $value:expr) => {{
        if $crate::enabled($crate::Level::Summary) {
            $crate::probe_handle!(histogram $name).record($value as u64);
        }
    }};
}

/// Opens a hierarchical trace span (see [`trace`]): emits a begin
/// event now and an end event when the returned
/// [`trace::TraceSpan`] guard drops, parented to the innermost open
/// span on this thread (or the span of an [`trace::adopt`]ed context).
/// Bind the guard to a named variable, not `_`, or it ends immediately.
///
/// Arguments attach to the end event via
/// [`TraceSpan::arg`](trace::TraceSpan::arg):
///
/// ```
/// let scope = sram_probe::trace::Scope::begin();
/// {
///     let mut span = sram_probe::trace_span!("coopt.slice");
///     span.arg("examined", 128);
/// }
/// let events = scope.finish();
/// assert_eq!(events.len(), 2); // begin, then end with the argument
/// assert_eq!(events[1].args, [("examined", 128)]);
/// ```
///
/// When tracing is off and no [`trace::Scope`] is live, the expansion
/// is one relaxed atomic load and a branch — no clock read, no
/// ring-buffer touch. The span name is interned once per call site
/// (cached in a `OnceLock`).
#[macro_export]
macro_rules! trace_span {
    ($name:expr) => {{
        if $crate::trace::tracing_enabled() {
            $crate::trace::TraceSpan::begin($crate::probe_handle!(trace $name))
        } else {
            $crate::trace::TraceSpan::disabled()
        }
    }};
}

/// Starts a timing span feeding the named histogram (in nanoseconds);
/// the returned [`Span`] guard records on drop. Bind it to a named
/// variable (`let _span = ...`), not `_`, or it drops immediately.
///
/// Below the active level the expansion is a branch yielding
/// [`Span::disabled`], which never touches the registry or the clock —
/// near-zero work, tested in `tests/disabled_level.rs`.
///
/// `probe_span!("name")` times at [`Level::Summary`];
/// `probe_span!(detail "name")` only at [`Level::Detail`].
#[macro_export]
macro_rules! probe_span {
    (detail $name:expr) => {{
        if $crate::enabled($crate::Level::Detail) {
            $crate::probe_handle!(histogram $name).start_span()
        } else {
            $crate::Span::disabled()
        }
    }};
    ($name:expr) => {{
        if $crate::enabled($crate::Level::Summary) {
            $crate::probe_handle!(histogram $name).start_span()
        } else {
            $crate::Span::disabled()
        }
    }};
}

/// A catalogued `SRAM_*` environment variable as a checked
/// [`EnvVar`], usable in a `const`:
///
/// ```
/// const PROBE_LEVEL: sram_probe::EnvVar = sram_probe::env_var!("SRAM_PROBE");
/// assert_eq!(PROBE_LEVEL.name(), "SRAM_PROBE");
/// let _level: Option<String> = PROBE_LEVEL.get();
/// ```
///
/// The name is checked against [`catalogue::ENV_VARS`] at compile time;
/// `std::env::var` itself is a disallowed method.
#[macro_export]
macro_rules! env_var {
    ($name:expr) => {{
        const VAR: $crate::EnvVar = $crate::EnvVar::checked($name, ::core::module_path!());
        VAR
    }};
}
