//! Table 2: `C / V / ΔV / I` quadruples and Eq. (1).
//!
//! Every interconnect-related delay/energy contribution in the paper is an
//! instance of Eq. (1):
//!
//! ```text
//! D = C·ΔV / I        E_sw = C·V·ΔV
//! ```
//!
//! with the `C`, `V`, `ΔV`, `I` values of Table 2. The `I` coefficients
//! (0.30, 0.15, 0.25, 0.18, 0.33, 0.50) are the paper's SPICE-fitted
//! average-current factors for the adopted FinFETs.

use crate::wire::{RAIL_DRIVER_FINS, WL_DRIVER_FINS};
use crate::{Periphery, WireCapacitances};
use sram_cell::CellCharacterization;
use sram_units::{Current, Energy, Time, Voltage};

/// One evaluated Table 2 row: a delay and a switching energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayEnergy {
    /// Eq. (1) delay `C·ΔV/I`.
    pub delay: Time,
    /// Eq. (1) switching energy `C·V·ΔV`.
    pub energy: Energy,
}

impl DelayEnergy {
    /// Evaluates Eq. (1) for a `C/V/ΔV/I` quadruple.
    fn from_eq1(c: sram_units::Capacitance, v: Voltage, delta_v: Voltage, i: Current) -> Self {
        Self {
            delay: c * delta_v / i,
            energy: c * v * delta_v,
        }
    }

    /// A zero contribution (used for absent components, e.g. the column
    /// path when `n_c ≤ W`).
    fn zero() -> Self {
        Self {
            delay: Time::ZERO,
            energy: Energy::ZERO,
        }
    }
}

/// Inputs shared by all Table 2 rows.
#[derive(Debug, Clone, Copy)]
pub struct ComponentInputs<'a> {
    /// Table 1 capacitances of the configuration.
    pub wires: &'a WireCapacitances,
    /// Peripheral (LVT) device figures.
    pub periphery: &'a Periphery,
    /// Cell look-up tables (for `I_read`).
    pub cell: &'a CellCharacterization,
    /// Array supply.
    pub vdd: Voltage,
    /// Cell supply rail `V_DDC`.
    pub vddc: Voltage,
    /// Cell ground rail `V_SSC`.
    pub vssc: Voltage,
    /// Asserted wordline level `V_WL`.
    pub vwl: Voltage,
    /// Sensing voltage `ΔV_S`.
    pub delta_vs: Voltage,
    /// Precharger fins `N_pre`.
    pub n_pre: u32,
    /// Write-buffer fins `N_wr`.
    pub n_wr: u32,
}

/// Cell `V_dd` rail switch: `C_CVDD`, `V = Vdd`, `ΔV = V_DDC − Vdd`,
/// `I = 0.30 · 20 · I_CVDD(V_DDC)`.
#[must_use]
pub fn cvdd_rail(inp: &ComponentInputs<'_>) -> DelayEnergy {
    let delta_v = inp.vddc - inp.vdd;
    if delta_v.volts() <= 0.0 {
        return DelayEnergy::zero();
    }
    let i = inp.periphery.i_cvdd(inp.vddc) * (0.30 * RAIL_DRIVER_FINS);
    DelayEnergy::from_eq1(inp.wires.cvdd, inp.vdd, delta_v, i)
}

/// Cell `V_ss` rail switch: `C_CVSS`, `V = Vdd`, `ΔV = |V_SSC|`,
/// `I = 0.15 · 20 · I_CVSS(V_SSC)`.
#[must_use]
pub fn cvss_rail(inp: &ComponentInputs<'_>) -> DelayEnergy {
    // A zero swing needs no device evaluation.
    if inp.vssc.abs().volts() <= 0.0 {
        return DelayEnergy::zero();
    }
    cvss_rail_with(inp, inp.periphery.i_cvss(inp.vssc))
}

/// [`cvss_rail`] with `I_CVSS(V_SSC)` read by the caller (a search reads
/// it once per `V_SSC` level).
#[must_use]
pub(crate) fn cvss_rail_with(inp: &ComponentInputs<'_>, i_cvss: Current) -> DelayEnergy {
    let delta_v = inp.vssc.abs();
    if delta_v.volts() <= 0.0 {
        return DelayEnergy::zero();
    }
    let i = i_cvss * (0.15 * RAIL_DRIVER_FINS);
    DelayEnergy::from_eq1(inp.wires.cvss, inp.vdd, delta_v, i)
}

/// Wordline during read: `C_WL`, `V = ΔV = Vdd`,
/// `I = 0.25 · 27 · I_ON,PFET`.
#[must_use]
pub fn wordline_read(inp: &ComponentInputs<'_>) -> DelayEnergy {
    let i = inp.periphery.ion_pfet() * (0.25 * WL_DRIVER_FINS);
    DelayEnergy::from_eq1(inp.wires.wordline, inp.vdd, inp.vdd, i)
}

/// Wordline during write (overdriven): `C_WL`, `V = Vdd`, `ΔV = V_WL`,
/// `I = 0.18 · 27 · I_WL(V_WL)`.
#[must_use]
pub fn wordline_write(inp: &ComponentInputs<'_>) -> DelayEnergy {
    let i = inp.periphery.i_wl(inp.vwl) * (0.18 * WL_DRIVER_FINS);
    DelayEnergy::from_eq1(inp.wires.wordline, inp.vdd, inp.vwl, i)
}

/// Column-select line: `C_COL`, `V = ΔV = Vdd`,
/// `I = 0.33 · 27 · I_ON,PFET`. Zero when the organization has no mux.
#[must_use]
pub fn column_select(inp: &ComponentInputs<'_>) -> DelayEnergy {
    if inp.wires.column_select.farads() == 0.0 {
        return DelayEnergy::zero();
    }
    let i = inp.periphery.ion_pfet() * (0.33 * WL_DRIVER_FINS);
    DelayEnergy::from_eq1(inp.wires.column_select, inp.vdd, inp.vdd, i)
}

/// Bitline during read: `C_BL`, `V = V_DDC − V_SSC`, `ΔV = ΔV_S`,
/// `I = I_read(V_DDC, V_SSC)` — the row negative Gnd accelerates. The
/// caller reads `i_read` from the cell table (a prepared slice reads it
/// once).
#[must_use]
pub(crate) fn bitline_read_with(inp: &ComponentInputs<'_>, i_read: Current) -> DelayEnergy {
    DelayEnergy::from_eq1(inp.wires.bitline, inp.vddc - inp.vssc, inp.delta_vs, i_read)
}

/// Bitline during write: `C_BL`, `V = ΔV = Vdd`,
/// `I = 0.50 · N_wr · I_ON,TG`.
#[must_use]
pub fn bitline_write(inp: &ComponentInputs<'_>) -> DelayEnergy {
    let i = inp.periphery.ion_tg() * (0.50 * f64::from(inp.n_wr));
    DelayEnergy::from_eq1(inp.wires.bitline, inp.vdd, inp.vdd, i)
}

/// Precharge after read: `C_BL`, `V = Vdd`, `ΔV = ΔV_S`,
/// `I = 0.50 · N_pre · I_ON,PFET`.
#[must_use]
pub fn precharge_read(inp: &ComponentInputs<'_>) -> DelayEnergy {
    let i = inp.periphery.ion_pfet() * (0.50 * f64::from(inp.n_pre));
    DelayEnergy::from_eq1(inp.wires.bitline, inp.vdd, inp.delta_vs, i)
}

/// Precharge after write: `C_BL`, `V = ΔV = Vdd`,
/// `I = 0.50 · N_pre · I_ON,PFET`.
#[must_use]
pub fn precharge_write(inp: &ComponentInputs<'_>) -> DelayEnergy {
    let i = inp.periphery.ion_pfet() * (0.50 * f64::from(inp.n_pre));
    DelayEnergy::from_eq1(inp.wires.bitline, inp.vdd, inp.vdd, i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayOrganization, TechnologyParams};
    use sram_device::DeviceLibrary;

    struct Fixture {
        wires: WireCapacitances,
        periphery: Periphery,
        cell: CellCharacterization,
    }

    fn fixture(rows: u32, cols: u32, n_pre: u32, n_wr: u32) -> Fixture {
        let lib = DeviceLibrary::sevennm();
        let org = ArrayOrganization::new(rows, cols, 64).unwrap();
        let periphery = Periphery::new(&lib);
        let wires =
            WireCapacitances::new(&org, &periphery, &TechnologyParams::sevennm(), n_pre, n_wr);
        Fixture {
            wires,
            periphery,
            cell: CellCharacterization::paper_hvt(lib.nominal_vdd()),
        }
    }

    fn inputs<'a>(fx: &'a Fixture, vssc_mv: f64, n_pre: u32, n_wr: u32) -> ComponentInputs<'a> {
        ComponentInputs {
            wires: &fx.wires,
            periphery: &fx.periphery,
            cell: &fx.cell,
            vdd: Voltage::from_millivolts(450.0),
            vddc: Voltage::from_millivolts(550.0),
            vssc: Voltage::from_millivolts(vssc_mv),
            vwl: Voltage::from_millivolts(550.0),
            delta_vs: Voltage::from_millivolts(120.0),
            n_pre,
            n_wr,
        }
    }

    #[test]
    fn negative_gnd_cuts_bitline_read_delay() {
        let fx = fixture(128, 64, 7, 1);
        let read = |vssc_mv| {
            let inp = inputs(&fx, vssc_mv, 7, 1);
            bitline_read_with(&inp, inp.cell.read_current(inp.vssc))
        };
        let (base, assisted) = (read(0.0), read(-240.0));
        assert!(
            assisted.delay < base.delay * 0.5,
            "negative Gnd: {} -> {}",
            base.delay,
            assisted.delay
        );
    }

    #[test]
    fn more_precharge_fins_cut_precharge_delay() {
        let fx1 = fixture(128, 64, 1, 1);
        let fx2 = fixture(128, 64, 10, 1);
        let d1 = precharge_read(&inputs(&fx1, 0.0, 1, 1)).delay;
        let d2 = precharge_read(&inputs(&fx2, 0.0, 10, 1)).delay;
        // N_pre = 10 drives ~10x harder but also loads C_BL slightly.
        assert!(d2 < d1 * 0.2, "{d1} -> {d2}");
    }

    #[test]
    fn rail_components_vanish_without_assists() {
        let fx = fixture(128, 64, 7, 1);
        let mut inp = inputs(&fx, 0.0, 7, 1);
        inp.vddc = inp.vdd; // no boost
        assert_eq!(cvdd_rail(&inp), DelayEnergy::zero());
        assert_eq!(cvss_rail(&inp), DelayEnergy::zero());
    }

    #[test]
    fn rail_energies_scale_with_boost() {
        let fx = fixture(128, 64, 7, 1);
        let small = {
            let mut inp = inputs(&fx, 0.0, 7, 1);
            inp.vddc = Voltage::from_millivolts(500.0);
            cvdd_rail(&inp).energy
        };
        let large = {
            let mut inp = inputs(&fx, 0.0, 7, 1);
            inp.vddc = Voltage::from_millivolts(640.0);
            cvdd_rail(&inp).energy
        };
        assert!(large > small);
    }

    #[test]
    fn column_component_zero_without_mux() {
        let fx = fixture(128, 64, 7, 1); // cols == W
        assert_eq!(column_select(&inputs(&fx, 0.0, 7, 1)), DelayEnergy::zero());
        let fx2 = fixture(128, 256, 7, 1);
        assert!(column_select(&inputs(&fx2, 0.0, 7, 1)).delay.seconds() > 0.0);
    }

    #[test]
    fn write_bitline_speeds_up_with_fins() {
        let fx = fixture(128, 64, 7, 1);
        let d1 = bitline_write(&inputs(&fx, 0.0, 7, 1)).delay;
        let fx8 = fixture(128, 64, 7, 8);
        let d8 = bitline_write(&inputs(&fx8, 0.0, 7, 8)).delay;
        assert!(d8 < d1);
    }

    #[test]
    fn table2_wordline_row_matches_transient_simulation() {
        // Cross-validate Eq. (1)'s average-current abstraction: charge a
        // real C_WL through a real 27-fin LVT driver inverter in the
        // transient simulator and compare the measured rise against the
        // Table 2 "WL during read" delay. The 0.25 average-current
        // coefficient is the paper's SPICE fit; ours must land within a
        // small factor for the abstraction to be sound on our devices.
        use sram_device::FinFet;
        use sram_spice::{Circuit, CrossingEdge, Transient, Waveform};
        use sram_units::Time;

        let lib = DeviceLibrary::sevennm();
        let fx = fixture(128, 64, 7, 1);
        let inp = inputs(&fx, 0.0, 7, 1);
        let eq1_delay = wordline_read(&inp).delay;

        let vdd = 0.45;
        let mut ckt = Circuit::new();
        let n_vdd = ckt.node("vdd");
        let n_in = ckt.node("in");
        let n_wl = ckt.node("wl");
        ckt.vsource("Vdd", n_vdd, Circuit::GROUND, Waveform::Dc(vdd));
        // Input falls: the 27-fin PFET turns on and charges the WL.
        ckt.vsource(
            "Vin",
            n_in,
            Circuit::GROUND,
            Waveform::step(
                Voltage::from_volts(vdd),
                Voltage::ZERO,
                Time::from_picoseconds(2.0),
                Time::from_picoseconds(0.5),
            ),
        );
        ckt.fet(
            "MP",
            n_in,
            n_wl,
            n_vdd,
            FinFet::new(lib.pfet(sram_device::VtFlavor::Lvt).clone(), 27),
        );
        ckt.fet(
            "MN",
            n_in,
            n_wl,
            Circuit::GROUND,
            FinFet::new(lib.nfet(sram_device::VtFlavor::Lvt).clone(), 27),
        );
        ckt.capacitor("CWL", n_wl, Circuit::GROUND, fx.wires.wordline.farads());
        let result = Transient::new(Time::from_picoseconds(200.0), Time::from_picoseconds(0.5))
            .run(&ckt)
            .unwrap();
        let trace = result.trace();
        let t0 = Time::from_picoseconds(2.0);
        let t90 = trace
            .crossing(
                n_wl,
                Voltage::from_volts(0.9 * vdd),
                CrossingEdge::Rising,
                t0,
            )
            .expect("WL must charge");
        let spice_delay = t90 - t0;
        let ratio = spice_delay / eq1_delay;
        // The 0.25 coefficient is the paper's fit for *their* devices; on
        // our card the driver's effective average current is ~3x higher,
        // so Eq. (1) is conservative. Same order of magnitude is the
        // soundness bar for the abstraction.
        assert!(
            ratio > 0.1 && ratio < 3.0,
            "Table 2 WL delay {eq1_delay} vs transient {spice_delay} (x{ratio:.2})"
        );
    }

    #[test]
    fn eq1_round_trip() {
        let de = DelayEnergy::from_eq1(
            sram_units::Capacitance::from_femtofarads(10.0),
            Voltage::from_volts(0.45),
            Voltage::from_millivolts(120.0),
            Current::from_microamps(10.0),
        );
        assert!((de.delay.picoseconds() - 120.0).abs() < 1e-9);
        assert!((de.energy.femtojoules() - 10.0 * 0.45 * 0.12).abs() < 1e-9);
    }
}
