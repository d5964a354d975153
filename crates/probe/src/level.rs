//! Verbosity control: `SRAM_PROBE` environment variable plus runtime
//! override.

use std::sync::atomic::{AtomicU8, Ordering};

/// Sentinel meaning "not yet initialized from the environment".
const UNINIT: u8 = u8::MAX;

static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);

/// Instrumentation verbosity. Ordered: `Off < Summary < Detail`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// No recording; every probe macro is a branch-and-skip.
    Off = 0,
    /// Counters, gauges, and call-granularity spans.
    Summary = 1,
    /// Adds high-frequency probes (per-iteration counters, per-solve
    /// histograms).
    Detail = 2,
}

impl Level {
    fn from_u8(raw: u8) -> Self {
        match raw {
            0 => Level::Off,
            1 => Level::Summary,
            _ => Level::Detail,
        }
    }
}

fn init_from_env() -> u8 {
    let raw = match crate::env_var!("SRAM_PROBE").get() {
        Some(value) => match value.trim() {
            "1" => Level::Summary as u8,
            "2" => Level::Detail as u8,
            _ => Level::Off as u8,
        },
        None => Level::Off as u8,
    };
    // A concurrent set_level may have run while we read the
    // environment; it wins.
    match LEVEL.compare_exchange(UNINIT, raw, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => raw,
        Err(current) => current,
    }
}

/// The current verbosity level (initialized from `SRAM_PROBE` on first
/// use; see [`set_level`]).
pub fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw == UNINIT {
        Level::from_u8(init_from_env())
    } else {
        Level::from_u8(raw)
    }
}

/// Overrides the verbosity at runtime, superseding `SRAM_PROBE`.
///
/// Used by consumers that must collect metrics regardless of the
/// environment (e.g. `reproduce --probe-json`).
pub fn set_level(new: Level) {
    LEVEL.store(new as u8, Ordering::Relaxed);
}

/// `true` when the current level is at least `min` — the fast path
/// every probe macro checks first.
#[inline]
pub fn enabled(min: Level) -> bool {
    level() >= min
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Off < Level::Summary);
        assert!(Level::Summary < Level::Detail);
    }

    #[test]
    fn set_level_round_trips() {
        // Single test mutating the global level; others don't read it.
        set_level(Level::Detail);
        assert_eq!(level(), Level::Detail);
        assert!(enabled(Level::Summary));
        set_level(Level::Summary);
        assert!(enabled(Level::Summary));
        assert!(!enabled(Level::Detail));
        set_level(Level::Off);
        assert!(!enabled(Level::Summary));
    }
}
