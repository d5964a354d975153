//! Fixture: a reasonless suppression is itself an error and does not
//! silence the violation below it — one `suppression-syntax` plus one
//! `unit-hygiene`.

/// Scales by a bare magnitude under a reasonless (hence void)
/// suppression.
pub fn nope(x: f64) -> f64 {
    // sram-lint: allow(unit-hygiene)
    x * 4.2e-6
}
