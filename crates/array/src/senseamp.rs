//! Sense-amplifier model.
//!
//! A latch-type sense amplifier resolves a differential `ΔV_S` input to a
//! full-swing output. Its regeneration time constant is the inverter τ of
//! the periphery scaled by the positive-feedback gain; the resolution
//! delay follows the classical `τ_sa · ln(Vdd / ΔV_S)` form. Energy is the
//! internal latch plus output loading switching through `Vdd`.

use crate::Periphery;
use sram_units::{Energy, Time, Voltage};

/// Latch-type sense amplifier figures.
#[derive(Debug, Clone)]
pub struct SenseAmp {
    delay: Time,
    energy: Energy,
}

impl SenseAmp {
    /// Latch devices per side (internal sizing assumption).
    const LATCH_FINS: f64 = 2.0;

    /// Characterizes the sense amplifier for a sensing voltage `delta_vs`.
    #[must_use]
    pub fn new(periphery: &Periphery, delta_vs: Voltage) -> Self {
        let vdd = periphery.vdd();
        let gain_ratio = (vdd.volts() / delta_vs.volts()).max(1.0);
        let delay = periphery.tau() * (Self::LATCH_FINS * gain_ratio.ln());
        // Latch internal nodes (2 sides x latch fins) plus output buffers
        // switch through Vdd.
        let c_switch = (periphery.c_inverter_input() + periphery.c_inverter_output())
            * (2.0 * Self::LATCH_FINS);
        let energy = c_switch * vdd * vdd;
        Self { delay, energy }
    }

    /// Resolution delay `D_sense_amp`.
    #[must_use]
    pub fn delay(&self) -> Time {
        self.delay
    }

    /// Per-operation switching energy `E_sense_amp` (one amplifier).
    #[must_use]
    pub fn energy(&self) -> Energy {
        self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_device::DeviceLibrary;

    #[test]
    fn smaller_sensing_voltage_takes_longer() {
        let p = Periphery::new(&DeviceLibrary::sevennm());
        let coarse = SenseAmp::new(&p, Voltage::from_millivolts(120.0));
        let fine = SenseAmp::new(&p, Voltage::from_millivolts(40.0));
        assert!(fine.delay() > coarse.delay());
    }

    #[test]
    fn figures_are_physical() {
        let p = Periphery::new(&DeviceLibrary::sevennm());
        let sa = SenseAmp::new(&p, Voltage::from_millivolts(120.0));
        assert!(sa.delay().picoseconds() > 0.1 && sa.delay().picoseconds() < 100.0);
        assert!(sa.energy().joules() > 0.0);
    }
}
