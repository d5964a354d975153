//! Peripheral-device figures: the LVT device quantities Tables 1 and 2
//! depend on.
//!
//! Peripheral circuits (decoders, drivers, prechargers, write buffers,
//! sense amplifiers) are always built from **LVT** devices in the paper,
//! regardless of the cell flavor. This module extracts the per-fin
//! capacitances and drive currents those tables reference:
//!
//! * `C_dn`, `C_dp`, `C_gn`, `C_gp` — drain/gate capacitances of
//!   single-fin N/P devices (Table 1);
//! * `I_ON,PFET`, `I_ON,TG` — per-fin ON currents (Table 2);
//! * `I_CVDD(V_DDC)`, `I_CVSS(V_SSC)`, `I_WL(V_WL)` — rail-driver currents
//!   at assist voltage levels (Table 2);
//! * the minimum-inverter time constant τ used by the logical-effort
//!   sizing of decoders and superbuffers.

use sram_device::{DeviceLibrary, FinFet, VtFlavor};
use sram_units::{Capacitance, Current, Time, Voltage};

/// Per-fin LVT peripheral-device figures at a given supply.
///
/// The supply-fixed figures (`I_ON,PFET`, `I_ON,NFET` and τ) are computed
/// once at construction; only the rail and wordline currents, which take
/// an assist voltage, evaluate the device model per call.
#[derive(Debug, Clone)]
pub struct Periphery {
    vdd: Voltage,
    nfet: FinFet,
    pfet: FinFet,
    ion_nfet: Current,
    ion_pfet: Current,
    tau: Time,
}

impl Periphery {
    /// Extracts peripheral figures from a device library at its nominal
    /// supply.
    #[must_use]
    pub fn new(library: &DeviceLibrary) -> Self {
        Self::at_supply(library, library.nominal_vdd())
    }

    /// Extracts peripheral figures at an explicit supply (dynamic voltage
    /// scaling studies).
    #[must_use]
    pub fn at_supply(library: &DeviceLibrary, vdd: Voltage) -> Self {
        let nfet = FinFet::new(library.nfet(VtFlavor::Lvt).clone(), 1);
        let pfet = FinFet::new(library.pfet(VtFlavor::Lvt).clone(), 1);
        let ion_nfet = nfet.ids(vdd, vdd);
        let ion_pfet = pfet.ids(vdd, vdd);
        let c_inv = nfet.c_gate() + pfet.c_gate();
        let i_avg = (ion_nfet + ion_pfet) * 0.5;
        let tau = c_inv * (vdd * 0.5) / i_avg;
        Self {
            vdd,
            nfet,
            pfet,
            ion_nfet,
            ion_pfet,
            tau,
        }
    }

    /// Supply voltage of the periphery.
    #[must_use]
    pub fn vdd(&self) -> Voltage {
        self.vdd
    }

    /// Per-fin NFET drain capacitance `C_dn`.
    #[must_use]
    pub fn cdn(&self) -> Capacitance {
        self.nfet.c_drain()
    }

    /// Per-fin PFET drain capacitance `C_dp`.
    #[must_use]
    pub fn cdp(&self) -> Capacitance {
        self.pfet.c_drain()
    }

    /// Per-fin NFET gate capacitance `C_gn`.
    #[must_use]
    pub fn cgn(&self) -> Capacitance {
        self.nfet.c_gate()
    }

    /// Per-fin PFET gate capacitance `C_gp`.
    #[must_use]
    pub fn cgp(&self) -> Capacitance {
        self.pfet.c_gate()
    }

    /// Per-fin PFET ON current `I_ON,PFET` at the nominal supply.
    #[must_use]
    pub fn ion_pfet(&self) -> Current {
        self.ion_pfet
    }

    /// Per-fin NFET ON current at the nominal supply.
    fn ion_nfet(&self) -> Current {
        self.ion_nfet
    }

    /// Per-fin transmission-gate ON current `I_ON,TG`.
    ///
    /// For the write-relevant direction (pulling a precharged bitline
    /// low) the NFET sees a full, constant `Vgs = Vdd` for the whole
    /// swing while the PFET conducts only over the upper half, so the
    /// effective drive averages to `I_N + I_P/2`.
    #[must_use]
    pub fn ion_tg(&self) -> Current {
        self.ion_nfet() + self.ion_pfet() * 0.5
    }

    /// Rail-driver current `I_CVDD(V_DDC)`: per-fin PFET sourcing the
    /// boosted cell-supply rail (gate grounded, full `V_DDC` swing).
    #[must_use]
    pub fn i_cvdd(&self, vddc: Voltage) -> Current {
        self.pfet.ids(vddc, vddc)
    }

    /// Rail-driver current `I_CVSS(V_SSC)`: per-fin NFET pulling the cell
    /// ground rail down to `V_SSC`; its gate is driven at `Vdd` while its
    /// source sits at the negative rail, so both `Vgs` and `Vds` grow with
    /// `|V_SSC|`.
    #[must_use]
    pub fn i_cvss(&self, vssc: Voltage) -> Current {
        let swing = self.vdd - vssc;
        self.nfet.ids(swing, swing)
    }

    /// Wordline-driver current `I_WL(V_WL)`: per-fin PFET of the last
    /// driver stage, supplied from the `V_WL` rail (Fig. 6).
    #[must_use]
    pub fn i_wl(&self, vwl: Voltage) -> Current {
        self.pfet.ids(vwl, vwl)
    }

    /// Minimum-inverter time constant τ: the delay scale of logical-effort
    /// sizing, `τ = C_inv · Vdd / (2 · I_drive)` with
    /// `C_inv = C_gn + C_gp` and the average N/P drive.
    #[must_use]
    pub fn tau(&self) -> Time {
        self.tau
    }

    /// Input capacitance of a minimum (1-fin N + 1-fin P) inverter.
    #[must_use]
    pub fn c_inverter_input(&self) -> Capacitance {
        self.cgn() + self.cgp()
    }

    /// Output (self-load) capacitance of a minimum inverter.
    #[must_use]
    pub fn c_inverter_output(&self) -> Capacitance {
        self.cdn() + self.cdp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn periphery() -> Periphery {
        Periphery::new(&DeviceLibrary::sevennm())
    }

    #[test]
    fn capacitances_are_single_fin() {
        let p = periphery();
        let lib = DeviceLibrary::sevennm();
        assert_eq!(p.cgn(), lib.nfet(VtFlavor::Lvt).c_gate_per_fin);
        assert_eq!(p.cdp(), lib.pfet(VtFlavor::Lvt).c_drain_per_fin);
    }

    #[test]
    fn stored_figures_equal_their_device_definitions() {
        let lib = DeviceLibrary::sevennm();
        for vdd in [lib.nominal_vdd(), Voltage::from_millivolts(350.0)] {
            let p = Periphery::at_supply(&lib, vdd);
            let nfet = FinFet::new(lib.nfet(VtFlavor::Lvt).clone(), 1);
            let pfet = FinFet::new(lib.pfet(VtFlavor::Lvt).clone(), 1);
            let ion_nfet = nfet.ids(vdd, vdd);
            let ion_pfet = pfet.ids(vdd, vdd);
            assert_eq!(p.ion_nfet(), ion_nfet, "I_ON,NFET at {vdd}");
            assert_eq!(p.ion_pfet(), ion_pfet, "I_ON,PFET at {vdd}");
            assert_eq!(p.ion_tg(), ion_nfet + ion_pfet * 0.5, "I_ON,TG at {vdd}");
            let c_inv = nfet.c_gate() + pfet.c_gate();
            let tau = c_inv * (vdd * 0.5) / ((ion_nfet + ion_pfet) * 0.5);
            assert_eq!(p.tau(), tau, "tau at {vdd}");
        }
    }

    #[test]
    fn tau_is_sub_picosecond_scale() {
        let tau = periphery().tau();
        assert!(
            tau.picoseconds() > 0.05 && tau.picoseconds() < 5.0,
            "tau = {tau}"
        );
    }

    #[test]
    fn rail_driver_currents_grow_with_assist_level() {
        let p = periphery();
        assert!(
            p.i_cvdd(Voltage::from_millivolts(640.0)) > p.i_cvdd(Voltage::from_millivolts(550.0))
        );
        assert!(
            p.i_cvss(Voltage::from_millivolts(-240.0)) > p.i_cvss(Voltage::ZERO),
            "a deeper negative rail gives the NFET more overdrive"
        );
        assert!(p.i_wl(Voltage::from_millivolts(540.0)) > p.i_wl(Voltage::from_millivolts(450.0)));
    }

    #[test]
    fn tg_current_exceeds_either_device_alone() {
        // I_N + I_P/2: both devices conduct over the upper half-swing.
        let p = periphery();
        let tg = p.ion_tg();
        assert!(tg > p.ion_nfet());
        assert!(tg > p.ion_pfet());
        assert!(tg < p.ion_nfet() + p.ion_pfet());
    }
}
