//! Fixture: a justified suppression keeps the walk quiet (counted as
//! suppressed, not reported).

/// Scales by a bare magnitude under a justified suppression.
pub fn checked(x: f64) -> f64 {
    // sram-lint: allow(unit-hygiene) fixture: dimensionless fit coefficient
    x * 2.5e-4
}
