//! Wordline/column driver: a four-stage superbuffer sized by logical
//! effort.
//!
//! The paper: "each output of row decoder is connected to a driver. The
//! design of this driver (superbuffer) is derived analytically and
//! verified by SPICE simulations … To avoid large area overheads, four
//! inverter stages are used." Table 3 splits the driver delay into the
//! first three stages (`D_row_drv`) plus the last stage charging the
//! wordline (the `D_WL` component of Table 2), which is why this model
//! reports the *first three stages* as its delay.
//!
//! Logical-effort sizing: with total electrical effort
//! `H = C_load / C_in(min inverter)`, each of the four stages bears
//! `h = H^(1/4)`; fin counts are the stage sizes rounded up to integers
//! (FinFET width quantization), with the last stage pinned to the paper's
//! 27 fins.

use crate::Periphery;
use sram_units::{Capacitance, Energy, Time};

/// A sized four-stage superbuffer.
///
/// # Examples
///
/// ```
/// use sram_array::{Periphery, Superbuffer};
/// use sram_device::DeviceLibrary;
/// use sram_units::Capacitance;
///
/// let periphery = Periphery::new(&DeviceLibrary::sevennm());
/// let driver = Superbuffer::design(Capacitance::from_femtofarads(5.0), &periphery);
/// assert_eq!(driver.stage_fins().len(), 4);
/// assert!(driver.first_three_stage_delay().seconds() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Superbuffer {
    stage_fins: [u32; 4],
    stage_delay: Time,
    energy_first_three: Energy,
}

impl Superbuffer {
    /// Sizes a superbuffer driving `c_load`.
    #[must_use]
    pub fn design(c_load: Capacitance, periphery: &Periphery) -> Self {
        let c_in = periphery.c_inverter_input();
        let h_total = (c_load / c_in).max(1.0);
        let h = h_total.powf(0.25);
        // Stage sizes 1, h, h^2, h^3 — quantized up; the last stage is the
        // paper's fixed 27-fin WL driver (it charges the wire through the
        // Table 2 component, not through this model).
        let mut fins = [1u32; 4];
        for (k, f) in fins.iter_mut().enumerate() {
            *f = (h.powi(k as i32)).ceil().max(1.0) as u32;
        }
        fins[3] = 27;

        // Per-stage delay: effort delay h plus one unit of parasitic
        // self-load, in units of tau.
        let tau = periphery.tau();
        let p_inv = periphery.c_inverter_output() / c_in;
        let stage_delay = tau * (h + p_inv);

        // Switching energy of the first three stages: each stage charges
        // the next stage's input plus its own output parasitics through a
        // full Vdd swing.
        let vdd = periphery.vdd();
        let mut energy = Energy::ZERO;
        for k in 0..3 {
            let c_next_in = c_in * f64::from(fins[k + 1]);
            let c_self = periphery.c_inverter_output() * f64::from(fins[k]);
            energy += (c_next_in + c_self) * vdd * vdd;
        }

        Self {
            stage_fins: fins,
            stage_delay,
            energy_first_three: energy,
        }
    }

    /// The quantized fin count of each stage.
    #[must_use]
    pub fn stage_fins(&self) -> &[u32; 4] {
        &self.stage_fins
    }

    /// Delay of the first three stages (`D_row_drv` / `D_col_drv` in
    /// Table 3); the fourth stage's delay is the Table 2 WL/COL component.
    #[must_use]
    pub fn first_three_stage_delay(&self) -> Time {
        self.stage_delay * 3.0
    }

    /// Switching energy of the first three stages
    /// (`E_row_drv` / `E_col_drv`).
    #[must_use]
    pub fn first_three_stage_energy(&self) -> Energy {
        self.energy_first_three
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_device::DeviceLibrary;

    fn periphery() -> Periphery {
        Periphery::new(&DeviceLibrary::sevennm())
    }

    #[test]
    fn stages_grow_geometrically() {
        let p = periphery();
        let d = Superbuffer::design(Capacitance::from_femtofarads(20.0), &p);
        let f = d.stage_fins();
        assert_eq!(f[0], 1);
        assert!(f[1] >= f[0] && f[2] >= f[1]);
        assert_eq!(f[3], 27);
    }

    #[test]
    fn bigger_load_means_longer_driver_delay() {
        let p = periphery();
        let small = Superbuffer::design(Capacitance::from_femtofarads(2.0), &p);
        let large = Superbuffer::design(Capacitance::from_femtofarads(50.0), &p);
        assert!(large.first_three_stage_delay() > small.first_three_stage_delay());
        assert!(large.first_three_stage_energy() > small.first_three_stage_energy());
    }

    #[test]
    fn tiny_load_clamps_to_unit_sizing() {
        let p = periphery();
        let d = Superbuffer::design(Capacitance::from_attofarads(1.0), &p);
        assert_eq!(d.stage_fins()[0..3], [1, 1, 1]);
    }
}
