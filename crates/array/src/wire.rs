//! Table 1: interconnect (wire) capacitances.
//!
//! Each equation composes per-cell wire capacitance (`C_width` along a
//! row, `C_height` along a column) with the device terminal loads hanging
//! off the wire. The fixed fin counts match the paper: the CVDD/CVSS rail
//! drivers use 20 fins, the WL/COL driver last stage uses 27.

use crate::{ArrayOrganization, Periphery, TechnologyParams};
use sram_units::Capacitance;

/// Fin count of the CVDD/CVSS rail-switch devices (sized for
/// `n_c = 1024`; Section 4).
pub(crate) const RAIL_DRIVER_FINS: f64 = 20.0;

/// Fin count of the last WL/COL driver stage (Tables 1–2).
pub(crate) const WL_DRIVER_FINS: f64 = 27.0;

/// All Table 1 capacitances for one array configuration.
///
/// # Examples
///
/// ```
/// use sram_array::{ArrayOrganization, Periphery, TechnologyParams, WireCapacitances};
/// use sram_device::DeviceLibrary;
///
/// # fn main() -> Result<(), sram_array::ArrayError> {
/// let org = ArrayOrganization::new(128, 64, 64)?;
/// let periphery = Periphery::new(&DeviceLibrary::sevennm());
/// let wires = WireCapacitances::new(&org, &periphery, &TechnologyParams::sevennm(), 12, 2);
/// assert!(wires.bitline.farads() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireCapacitances {
    /// `C_CVDD`: the switchable cell-supply rail across one row.
    pub cvdd: Capacitance,
    /// `C_CVSS`: the switchable cell-ground rail across one row.
    pub cvss: Capacitance,
    /// `C_WL`: one wordline across the row plus its driver drain.
    pub wordline: Capacitance,
    /// `C_COL`: the column-select line (zero without a column mux).
    pub column_select: Capacitance,
    /// `C_BL`: one bitline down the column, including precharger, write
    /// buffer and mux loading.
    pub bitline: Capacitance,
}

impl WireCapacitances {
    /// Evaluates Table 1 for an organization with `n_pre` precharger fins
    /// and `n_wr` write-buffer fins.
    #[must_use]
    pub fn new(
        org: &ArrayOrganization,
        periphery: &Periphery,
        tech: &TechnologyParams,
        n_pre: u32,
        n_wr: u32,
    ) -> Self {
        let nc = f64::from(org.cols());
        let c_width = tech.cell_width_cap();
        let (cdn, cdp) = (periphery.cdn(), periphery.cdp());
        let cgn = periphery.cgn();

        // C_CVDD = n_c (C_width + 2 C_dp) + 2*20*C_dp
        let cvdd = (c_width + cdp * 2.0) * nc + cdp * (2.0 * RAIL_DRIVER_FINS);
        // C_CVSS = n_c (C_width + 2 C_dn) + 2*20*C_dn
        let cvss = (c_width + cdn * 2.0) * nc + cdn * (2.0 * RAIL_DRIVER_FINS);
        // C_WL = n_c (C_width + 2 C_gn) + 27 (C_dn + C_dp)
        let wordline = (c_width + cgn * 2.0) * nc + (cdn + cdp) * WL_DRIVER_FINS;

        Self {
            cvdd,
            cvss,
            wordline,
            column_select: column_select(org, periphery, tech, n_wr),
            bitline: bitline(org, periphery, tech, n_pre, n_wr),
        }
    }
}

/// `C_COL`: 0 if `n_c <= W`, else
/// `n_c C_width + 27 (C_dn + C_dp) + 2 W N_wr (C_gn + C_gp)`.
pub(crate) fn column_select(
    org: &ArrayOrganization,
    periphery: &Periphery,
    tech: &TechnologyParams,
    n_wr: u32,
) -> Capacitance {
    if !org.has_column_mux() {
        return Capacitance::ZERO;
    }
    let nc = f64::from(org.cols());
    let w = f64::from(org.word_bits());
    let nwr = f64::from(n_wr);
    let (cdn, cdp) = (periphery.cdn(), periphery.cdp());
    let (cgn, cgp) = (periphery.cgn(), periphery.cgp());
    tech.cell_width_cap() * nc + (cdn + cdp) * WL_DRIVER_FINS + (cgn + cgp) * (2.0 * w * nwr)
}

/// `C_BL`:
/// ```text
/// n_r (C_height + C_dn) + (N_pre + 1) C_dp + N_wr (C_dn + C_dp) + C_dp   if n_c <= W
/// n_r (C_height + C_dn) + (N_pre + 1) C_dp + 2 N_wr (C_dn + C_dp)        if n_c >  W
/// ```
pub(crate) fn bitline(
    org: &ArrayOrganization,
    periphery: &Periphery,
    tech: &TechnologyParams,
    n_pre: u32,
    n_wr: u32,
) -> Capacitance {
    let nr = f64::from(org.rows());
    let npre = f64::from(n_pre);
    let nwr = f64::from(n_wr);
    let (cdn, cdp) = (periphery.cdn(), periphery.cdp());
    let bl_base = (tech.cell_height_cap() + cdn) * nr + cdp * (npre + 1.0);
    if org.has_column_mux() {
        bl_base + (cdn + cdp) * (2.0 * nwr)
    } else {
        bl_base + (cdn + cdp) * nwr + cdp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_device::DeviceLibrary;

    fn wires(rows: u32, cols: u32, npre: u32, nwr: u32) -> WireCapacitances {
        let org = ArrayOrganization::new(rows, cols, 64).unwrap();
        WireCapacitances::new(
            &org,
            &Periphery::new(&DeviceLibrary::sevennm()),
            &TechnologyParams::sevennm(),
            npre,
            nwr,
        )
    }

    #[test]
    fn hand_computed_cvdd() {
        // n_c = 64: C_CVDD = 64*(36.55 aF + 2*35 aF) + 40*35 aF = 8219.2 aF.
        let w = wires(128, 64, 1, 1);
        let expect = 64.0 * (36.55e-18 + 2.0 * 35e-18) + 40.0 * 35e-18;
        assert!(
            (w.cvdd.farads() - expect).abs() < 1e-21,
            "{} vs {}",
            w.cvdd.farads(),
            expect
        );
    }

    #[test]
    fn bitline_grows_with_rows_and_fins() {
        assert!(wires(256, 64, 1, 1).bitline > wires(128, 64, 1, 1).bitline);
        assert!(wires(128, 64, 20, 1).bitline > wires(128, 64, 1, 1).bitline);
        assert!(wires(128, 64, 1, 8).bitline > wires(128, 64, 1, 1).bitline);
    }

    #[test]
    fn wordline_grows_with_cols() {
        assert!(wires(128, 256, 1, 1).wordline > wires(128, 64, 1, 1).wordline);
    }

    #[test]
    fn column_select_is_zero_without_mux() {
        assert_eq!(wires(128, 64, 1, 1).column_select, Capacitance::ZERO);
        assert!(wires(128, 128, 1, 1).column_select.farads() > 0.0);
    }

    #[test]
    fn mux_doubles_write_buffer_loading_on_bl() {
        // With a mux, the write path has two TGs: 2*N_wr*(C_dn+C_dp) vs
        // N_wr*(C_dn+C_dp) + C_dp.
        let with_mux = wires(128, 128, 5, 4);
        let org_no = ArrayOrganization::new(128, 64, 64).unwrap();
        let no_mux = WireCapacitances::new(
            &org_no,
            &Periphery::new(&DeviceLibrary::sevennm()),
            &TechnologyParams::sevennm(),
            5,
            4,
        );
        // Same n_r/N_pre: the difference is exactly the extra TG loading.
        let p = Periphery::new(&DeviceLibrary::sevennm());
        let diff = with_mux.bitline - no_mux.bitline;
        let expect = (p.cdn() + p.cdp()) * 4.0 - p.cdp();
        assert!((diff.farads() - expect.farads()).abs() < 1e-21);
    }
}
