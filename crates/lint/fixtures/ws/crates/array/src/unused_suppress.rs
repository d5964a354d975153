//! Fixture: a well-formed suppression gone stale — the bare literal it
//! once excused now sits in a named const, so `unit-hygiene` no longer
//! fires on the covered line and `unused-suppression` must report the
//! comment.

const LEAK_AMPS: f64 = 3.0e-9;

// sram-lint: allow(unit-hygiene) leftover from a hoisted literal
/// Returns the named leakage; the bare literal is long gone.
pub fn tidy() -> f64 {
    LEAK_AMPS
}
