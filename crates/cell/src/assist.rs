//! Assist-technique configuration.
//!
//! Section 3 of the paper surveys five assist techniques and selects three:
//! **Vdd boost** (`V_DDC > Vdd`, read stability), **negative Gnd**
//! (`V_SSC < 0`, read current), and **wordline overdrive**
//! (`V_WL > Vdd`, write margin). The rejected techniques — wordline
//! underdrive and negative bitline — are still representable here because
//! the Fig. 3(d)/Fig. 5(b) reproductions must sweep them.

use sram_units::Voltage;

/// The four assist rail voltages applied to a 6T cell.
///
/// `vwl` is the wordline *high* level (used when the WL is asserted);
/// `vbl` is the write-driven bitline *low* level (0 without the
/// negative-BL assist).
///
/// # Examples
///
/// ```
/// use sram_cell::AssistVoltages;
/// use sram_units::Voltage;
///
/// let vdd = Voltage::from_millivolts(450.0);
/// let m2 = AssistVoltages::nominal(vdd)
///     .with_vddc(Voltage::from_millivolts(550.0))
///     .with_vssc(Voltage::from_millivolts(-240.0));
/// assert_eq!(m2.read_swing().millivolts(), 790.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssistVoltages {
    /// Cell supply rail `V_DDC` (≥ Vdd when the Vdd-boost assist is on).
    pub vddc: Voltage,
    /// Cell ground rail `V_SSC` (< 0 when the negative-Gnd assist is on).
    pub vssc: Voltage,
    /// Asserted wordline level `V_WL` (> Vdd for WL overdrive, < Vdd for
    /// WL underdrive).
    pub vwl: Voltage,
    /// Write-driven bitline low level `V_BL` (< 0 for the negative-BL
    /// assist).
    pub vbl: Voltage,
}

impl AssistVoltages {
    /// No-assist configuration at supply `vdd`: `V_DDC = Vdd`,
    /// `V_SSC = 0`, `V_WL = Vdd`, `V_BL = 0`.
    #[must_use]
    pub fn nominal(vdd: Voltage) -> Self {
        Self {
            vddc: vdd,
            vssc: Voltage::ZERO,
            vwl: vdd,
            vbl: Voltage::ZERO,
        }
    }

    /// Replaces the cell supply rail (Vdd-boost assist).
    #[must_use]
    pub fn with_vddc(mut self, vddc: Voltage) -> Self {
        self.vddc = vddc;
        self
    }

    /// Replaces the cell ground rail (negative-Gnd assist).
    #[must_use]
    pub fn with_vssc(mut self, vssc: Voltage) -> Self {
        self.vssc = vssc;
        self
    }

    /// Replaces the asserted wordline level (WL over-/under-drive).
    #[must_use]
    pub fn with_vwl(mut self, vwl: Voltage) -> Self {
        self.vwl = vwl;
        self
    }

    /// Replaces the write-driven bitline low level (negative-BL assist).
    #[must_use]
    pub fn with_vbl(mut self, vbl: Voltage) -> Self {
        self.vbl = vbl;
        self
    }

    /// Total voltage across the cell during read, `V_DDC − V_SSC` — the
    /// `V` column of the paper's Table 2 "BL during read" row.
    #[must_use]
    pub fn read_swing(&self) -> Voltage {
        self.vddc - self.vssc
    }

    /// Validates physical plausibility of the rails.
    ///
    /// # Errors
    ///
    /// Returns a description of the violation: the supply rail must exceed
    /// the ground rail, and the asserted WL must be positive.
    pub fn validate(&self) -> Result<(), String> {
        if self.vddc <= self.vssc {
            return Err(format!(
                "V_DDC ({}) must exceed V_SSC ({})",
                self.vddc, self.vssc
            ));
        }
        if self.vwl.volts() <= 0.0 {
            return Err(format!("V_WL ({}) must be positive", self.vwl));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vdd() -> Voltage {
        Voltage::from_millivolts(450.0)
    }

    #[test]
    fn nominal_has_no_assists() {
        let a = AssistVoltages::nominal(vdd());
        assert_eq!(a.vddc, vdd());
        assert_eq!(a.vssc, Voltage::ZERO);
        assert_eq!(a.vwl, vdd());
        assert_eq!(a.vbl, Voltage::ZERO);
        assert_eq!(a.read_swing(), vdd());
        a.validate().unwrap();
    }

    #[test]
    fn builders_compose() {
        let a = AssistVoltages::nominal(vdd())
            .with_vddc(Voltage::from_millivolts(550.0))
            .with_vssc(Voltage::from_millivolts(-240.0))
            .with_vwl(Voltage::from_millivolts(540.0))
            .with_vbl(Voltage::from_millivolts(-100.0));
        assert_eq!(a.vddc.millivolts(), 550.0);
        assert_eq!(a.vssc.millivolts(), -240.0);
        assert_eq!(a.vwl.millivolts(), 540.0);
        assert_eq!(a.vbl.millivolts(), -100.0);
        a.validate().unwrap();
    }

    #[test]
    fn validation_rejects_inverted_rails() {
        let a = AssistVoltages::nominal(vdd()).with_vddc(Voltage::from_millivolts(-500.0));
        assert!(a.validate().is_err());
        let b = AssistVoltages::nominal(vdd()).with_vwl(Voltage::ZERO);
        assert!(b.validate().is_err());
    }
}
