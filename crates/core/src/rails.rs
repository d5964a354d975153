//! Voltage-rail policies: methods M1 and M2.
//!
//! Section 5 evaluates two assumptions about how many extra supply rails
//! (external pins or on-die DC-DC outputs) the design may use:
//!
//! * **M1** — one extra *positive* rail only. Its level must serve both
//!   the Vdd-boost and the WL-overdrive assists, so it is set to
//!   `max(V_DDC, V_WL)`; no negative rail exists, hence `V_SSC = 0`.
//! * **M2** — no restriction: `V_DDC` and `V_WL` each take their own
//!   minimum yield-meeting level and a negative `V_SSC` rail is
//!   available.

use crate::CooptError;
use sram_cell::{AssistVoltages, CellCharacterizer};
use sram_units::Voltage;

/// Rail-count policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// One extra voltage rail, set to `max(V_DDC, V_WL)`; no negative Gnd.
    M1,
    /// Unrestricted rails: independent `V_DDC`, `V_WL`, and `V_SSC`.
    M2,
}

impl core::fmt::Display for Method {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Method::M1 => f.write_str("M1"),
            Method::M2 => f.write_str("M2"),
        }
    }
}

/// The rail levels selected for one `(flavor, method)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RailSelection {
    /// Cell supply rail `V_DDC`.
    pub vddc: Voltage,
    /// Asserted wordline level `V_WL`.
    pub vwl: Voltage,
    /// Whether a negative `V_SSC` rail may be used.
    pub negative_gnd_allowed: bool,
}

impl RailSelection {
    /// Applies the policy to per-technique minimum levels
    /// (`vddc_min` from the RSNM requirement, `vwl_min` from WM).
    #[must_use]
    pub fn from_minimums(method: Method, vddc_min: Voltage, vwl_min: Voltage) -> Self {
        match method {
            Method::M1 => {
                let rail = vddc_min.max(vwl_min);
                Self {
                    vddc: rail,
                    vwl: rail,
                    negative_gnd_allowed: false,
                }
            }
            Method::M2 => Self {
                vddc: vddc_min,
                vwl: vwl_min,
                negative_gnd_allowed: true,
            },
        }
    }

    /// The paper's published minimum levels (its SPICE results):
    /// `V_DDC = 640 mV / V_WL = 490 mV` for LVT,
    /// `V_DDC = 550 mV / V_WL = 540 mV` for HVT.
    #[must_use]
    pub fn paper_minimums(flavor: sram_device::VtFlavor) -> (Voltage, Voltage) {
        match flavor {
            sram_device::VtFlavor::Lvt => (
                Voltage::from_millivolts(640.0),
                Voltage::from_millivolts(490.0),
            ),
            sram_device::VtFlavor::Hvt => (
                Voltage::from_millivolts(550.0),
                Voltage::from_millivolts(540.0),
            ),
        }
    }
}

/// Finds the minimum `V_DDC` (10 mV grid) whose read SNM meets `delta`,
/// by simulation — the Section 5 rail-minimization step.
///
/// # Errors
///
/// [`CooptError::RailSearchFailed`] when no level up to 800 mV suffices.
pub(crate) fn minimize_vddc(
    characterizer: &CellCharacterizer,
    delta: Voltage,
) -> Result<Voltage, CooptError> {
    let vdd = characterizer.vdd();
    let nominal = AssistVoltages::nominal(vdd);
    let mut mv = vdd.millivolts();
    while mv <= 800.0 {
        let vddc = Voltage::from_millivolts(mv);
        let rsnm = characterizer
            .read_snm(&nominal.with_vddc(vddc))
            .map_err(CooptError::Cell)?;
        if rsnm >= delta {
            return Ok(vddc);
        }
        mv += 10.0;
    }
    Err(CooptError::RailSearchFailed { rail: "V_DDC" })
}

/// Finds the minimum `V_WL` (10 mV grid) whose write margin meets
/// `delta`, by simulation.
///
/// The write netlist drives the wordline at the probe level and never
/// reads `bias.vwl`, so one continuation flip search
/// ([`CellCharacterizer::wordline_flip_voltage`]) serves the whole
/// scan; each step's margin is `V_WL − flip`, the subtraction
/// [`CellCharacterizer::write_margin`] does.
///
/// # Errors
///
/// [`CooptError::RailSearchFailed`] when no level up to 800 mV suffices.
pub(crate) fn minimize_vwl(
    characterizer: &CellCharacterizer,
    delta: Voltage,
) -> Result<Voltage, CooptError> {
    let vdd = characterizer.vdd();
    let mut mv = vdd.millivolts();
    if mv > 800.0 {
        return Err(CooptError::RailSearchFailed { rail: "V_WL" });
    }
    let flip = characterizer
        .wordline_flip_voltage(&AssistVoltages::nominal(vdd))
        .map_err(CooptError::Cell)?;
    while mv <= 800.0 {
        let vwl = Voltage::from_millivolts(mv);
        if vwl - flip >= delta {
            return Ok(vwl);
        }
        mv += 10.0;
    }
    Err(CooptError::RailSearchFailed { rail: "V_WL" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_device::VtFlavor;

    #[test]
    fn m1_takes_the_max_rail() {
        let (vddc, vwl) = RailSelection::paper_minimums(VtFlavor::Lvt);
        let sel = RailSelection::from_minimums(Method::M1, vddc, vwl);
        assert_eq!(sel.vddc.millivolts(), 640.0);
        assert_eq!(sel.vwl.millivolts(), 640.0);
        assert!(!sel.negative_gnd_allowed);
    }

    #[test]
    fn m2_keeps_independent_rails() {
        let (vddc, vwl) = RailSelection::paper_minimums(VtFlavor::Lvt);
        let sel = RailSelection::from_minimums(Method::M2, vddc, vwl);
        assert_eq!(sel.vddc.millivolts(), 640.0);
        assert_eq!(sel.vwl.millivolts(), 490.0);
        assert!(sel.negative_gnd_allowed);
    }

    #[test]
    fn hvt_m1_rail_is_550() {
        // max(550, 540) = 550: the paper's Table 4 HVT-M1 voltages.
        let (vddc, vwl) = RailSelection::paper_minimums(VtFlavor::Hvt);
        let sel = RailSelection::from_minimums(Method::M1, vddc, vwl);
        assert_eq!(sel.vddc.millivolts(), 550.0);
        assert_eq!(sel.vwl.millivolts(), 550.0);
    }

    /// The per-step scan `minimize_vwl` replaced: a fresh flip search
    /// inside every `write_margin` call.
    fn minimize_vwl_by_scan(
        characterizer: &CellCharacterizer,
        delta: Voltage,
    ) -> Result<Voltage, CooptError> {
        let vdd = characterizer.vdd();
        let nominal = AssistVoltages::nominal(vdd);
        let mut mv = vdd.millivolts();
        while mv <= 800.0 {
            let vwl = Voltage::from_millivolts(mv);
            let wm = characterizer
                .write_margin(&nominal.with_vwl(vwl))
                .map_err(CooptError::Cell)?;
            if wm >= delta {
                return Ok(vwl);
            }
            mv += 10.0;
        }
        Err(CooptError::RailSearchFailed { rail: "V_WL" })
    }

    #[test]
    fn one_flip_search_matches_the_per_step_scan() {
        use sram_device::DeviceLibrary;
        let lib = DeviceLibrary::sevennm();
        for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
            for vdd_mv in [400.0, 450.0, 500.0] {
                let vdd = Voltage::from_millivolts(vdd_mv);
                let chr = CellCharacterizer::new(&lib, flavor).with_vdd(vdd);
                let delta = vdd * 0.35;
                let fast = minimize_vwl(&chr, delta).unwrap();
                let oracle = minimize_vwl_by_scan(&chr, delta).unwrap();
                assert_eq!(fast, oracle, "{flavor} at Vdd = {vdd}");
            }
        }
    }

    #[test]
    fn vwl_search_starting_above_800_mv_fails() {
        use sram_device::DeviceLibrary;
        let chr = CellCharacterizer::new(&DeviceLibrary::sevennm(), VtFlavor::Hvt)
            .with_vdd(Voltage::from_millivolts(810.0));
        let err = minimize_vwl(&chr, Voltage::from_millivolts(100.0)).unwrap_err();
        assert!(matches!(err, CooptError::RailSearchFailed { rail: "V_WL" }));
    }

    #[test]
    fn simulated_rail_minimization_lands_near_paper() {
        use sram_cell::CellCharacterizer;
        use sram_device::DeviceLibrary;
        let lib = DeviceLibrary::sevennm();
        let delta = Voltage::from_millivolts(157.5);
        let chr = CellCharacterizer::new(&lib, VtFlavor::Hvt).with_vtc_points(31);
        let vddc = minimize_vddc(&chr, delta).unwrap();
        let vwl = minimize_vwl(&chr, delta).unwrap();
        // Paper: 550 mV / 540 mV. Our device card lands within ~30 mV.
        assert!(
            (vddc.millivolts() - 550.0).abs() <= 40.0,
            "V_DDC min = {vddc}"
        );
        assert!((vwl.millivolts() - 540.0).abs() <= 40.0, "V_WL min = {vwl}");
    }
}
