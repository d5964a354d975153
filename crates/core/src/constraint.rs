//! The yield constraint.
//!
//! The paper's accurate constraint is statistical
//! (`min over margins of (μ − kσ) ≥ 0`); "for simplicity" it actually
//! uses the deterministic `min(HSNM, RSNM, WM) ≥ δ` with
//! `δ = 0.35 · Vdd`. The optimizer checks the deterministic form per
//! candidate (it only depends on `V_SSC` through the cell look-up
//! tables); the statistical form is checked on a winning design by
//! Monte Carlo ([`crate::CoOptimizationFramework::verify_statistical_yield`]).

use sram_cell::CellCharacterization;
use sram_units::Voltage;

/// The yield requirement on the three cell margins:
/// `min(HSNM, RSNM, WM) ≥ δ` (the paper's Section 5 simplification,
/// `δ = 0.35·Vdd`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldConstraint {
    /// The minimum acceptable margin `δ`.
    pub delta: Voltage,
}

impl YieldConstraint {
    /// The paper's constraint at supply `vdd`: `δ = 0.35 · Vdd`.
    #[must_use]
    pub fn paper_delta(vdd: Voltage) -> Self {
        Self { delta: vdd * 0.35 }
    }

    /// Checks the constraint against a characterization snapshot at cell
    /// ground `vssc`.
    #[must_use]
    pub fn check_snapshot(&self, cell: &CellCharacterization, vssc: Voltage) -> bool {
        cell.min_margin(vssc) >= self.delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_cell::CellCharacterization;

    fn vdd() -> Voltage {
        Voltage::from_millivolts(450.0)
    }

    #[test]
    fn paper_delta_is_35_percent() {
        let YieldConstraint { delta } = YieldConstraint::paper_delta(vdd());
        assert!((delta.millivolts() - 157.5).abs() < 1e-9);
    }

    #[test]
    fn paper_hvt_snapshot_meets_delta_at_its_rails() {
        // The paper-mode snapshot is built to cross delta exactly at its
        // characterized rails, so min_margin(0) == delta.
        let cell = CellCharacterization::paper_hvt(vdd());
        let c = YieldConstraint::paper_delta(vdd());
        assert!(c.check_snapshot(&cell, Voltage::ZERO));
        // Deep negative Gnd *helps* RSNM slightly in the model, so it
        // stays feasible across the paper's V_SSC range.
        assert!(c.check_snapshot(&cell, Voltage::from_millivolts(-240.0)));
    }

    #[test]
    fn tighter_delta_fails() {
        let cell = CellCharacterization::paper_hvt(vdd());
        let c = YieldConstraint {
            delta: Voltage::from_millivolts(200.0),
        };
        assert!(!c.check_snapshot(&cell, Voltage::ZERO));
    }
}
