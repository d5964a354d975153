//! Figure 3: read-assist technique sweeps on the 6T-HVT cell.
//!
//! * (a) RSNM and read current of 6T-HVT normalized to 6T-LVT;
//! * (b) Vdd boost (`V_DDC`) sweep — RSNM rises, bitline delay flat;
//! * (c) negative Gnd (`V_SSC`) sweep — read current rises, bitline delay
//!   falls through the 6T-LVT-no-assist reference line;
//! * (d) wordline underdrive (`V_WL` during read) sweep — RSNM rises but
//!   bitline delay rises too (the rejected technique).
//!
//! Bitline delay assumes a 64-cell column, as the paper's caption states.

use crate::format_series;
use sram_cell::{AssistVoltages, CellCharacterizer, CellError, Sram6t, VtcHalf, VtcMode};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_spice::{DcSolver, Waveform};
use sram_units::{Capacitance, Current, Time, Voltage};

/// Bitline capacitance of the caption's 64-cell column (cell height wire
/// plus one access drain per row; precharger loading omitted as in the
/// cell-level figures).
fn column_c_bl(library: &DeviceLibrary) -> Capacitance {
    let tech = sram_array::TechnologyParams::sevennm();
    let acc_drain = library.nfet(VtFlavor::Hvt).c_drain_per_fin;
    (tech.cell_height_cap() + acc_drain) * 64.0
}

/// Bitline delay `C_BL · ΔV_S / I_read` for a 64-cell column.
#[must_use]
fn bitline_delay(library: &DeviceLibrary, i_read: Current) -> Time {
    let delta_vs = Voltage::from_millivolts(120.0);
    column_c_bl(library) * delta_vs / i_read
}

/// One sample of an assist sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct AssistPoint {
    /// Swept assist voltage.
    pub level: Voltage,
    /// Read SNM under this bias.
    pub rsnm: Voltage,
    /// Cell read current under this bias.
    pub i_read: Current,
    /// 64-cell-column bitline delay.
    pub bl_delay: Time,
}

fn sample(
    library: &DeviceLibrary,
    chr: &CellCharacterizer,
    bias: &AssistVoltages,
    level: Voltage,
) -> Result<AssistPoint, CellError> {
    let rsnm = match chr.read_snm(bias) {
        Ok(v) => v,
        Err(CellError::MeasurementFailed { .. }) => Voltage::ZERO,
        Err(e) => return Err(e),
    };
    let i_read = chr.read_current(bias)?;
    Ok(AssistPoint {
        level,
        rsnm,
        i_read,
        bl_delay: bitline_delay(library, i_read),
    })
}

/// Fig. 3(b): sweep `V_DDC` from 450 mV to 700 mV.
///
/// # Errors
///
/// Propagates simulation failures.
fn vdd_boost_sweep(library: &DeviceLibrary) -> Result<Vec<AssistPoint>, CellError> {
    let chr = CellCharacterizer::new(library, VtFlavor::Hvt).with_vtc_points(41);
    let vdd = library.nominal_vdd();
    (450..=700)
        .step_by(25)
        .map(|mv| {
            let vddc = Voltage::from_millivolts(f64::from(mv));
            let bias = AssistVoltages::nominal(vdd).with_vddc(vddc);
            sample(library, &chr, &bias, vddc)
        })
        .collect()
}

/// Fig. 3(c): sweep `V_SSC` from 0 to −240 mV (at the yield-minimum
/// `V_DDC` = 550 mV, the paper's Fig. 4 operating point).
///
/// # Errors
///
/// Propagates simulation failures.
fn negative_gnd_sweep(library: &DeviceLibrary) -> Result<Vec<AssistPoint>, CellError> {
    let chr = CellCharacterizer::new(library, VtFlavor::Hvt).with_vtc_points(41);
    let vdd = library.nominal_vdd();
    (0..=8)
        .map(|k| {
            // `0 − 30k`: the first level is +0, not −0 (which prints `-0`).
            let vssc = Voltage::from_millivolts(0.0 - 30.0 * f64::from(k));
            let bias = AssistVoltages::nominal(vdd)
                .with_vddc(Voltage::from_millivolts(550.0))
                .with_vssc(vssc);
            sample(library, &chr, &bias, vssc)
        })
        .collect()
}

/// Fig. 3(d): wordline underdrive — sweep the *read* wordline level.
///
/// The standard read circuit asserts the WL at `Vdd`; this sweep biases
/// it lower (or higher), requiring a custom read-current circuit.
///
/// # Errors
///
/// Propagates simulation failures.
fn wl_underdrive_sweep(library: &DeviceLibrary) -> Result<Vec<AssistPoint>, CellError> {
    let vdd = library.nominal_vdd();
    let cell = Sram6t::new(library, VtFlavor::Hvt);
    let mut out = Vec::new();
    for mv in (250..=500).step_by(25) {
        let vwl_read = Voltage::from_millivolts(f64::from(mv));
        let bias = AssistVoltages::nominal(vdd);

        // RSNM with the read-mode access gate at vwl_read: reuse the VTC
        // circuit but override the WL source.
        let rsnm = {
            let mut curves = Vec::new();
            for half in [VtcHalf::Left, VtcHalf::Right] {
                let (mut ckt, _u, out_node) = cell.vtc_circuit(half, VtcMode::Read, &bias, vdd);
                ckt.set_source_voltage("VWL", vwl_read)
                    .map_err(CellError::Simulation)?;
                let points = sram_spice::DcSweep::new("VU", bias.vssc, bias.vddc, 41).run(&ckt)?;
                curves.push(sram_cell::Vtc::new(
                    points
                        .into_iter()
                        .map(|p| (p.value, p.solution.voltage(out_node)))
                        .collect(),
                )?);
            }
            match sram_cell::butterfly_snm(&curves[0], &curves[1]) {
                Ok(v) => v,
                Err(CellError::MeasurementFailed { .. }) => Voltage::ZERO,
                Err(e) => return Err(e),
            }
        };

        // Read current with the WL at vwl_read.
        let i_read = {
            let (mut ckt, nodes) = cell.read_circuit(&bias, vdd);
            ckt.set_source_waveform("VWL", Waveform::dc(vwl_read))
                .map_err(CellError::Simulation)?;
            let sol = DcSolver::new()
                .nodeset(nodes.q, Voltage::ZERO)
                .nodeset(nodes.qb, vdd)
                .solve(&ckt)
                .map_err(CellError::Simulation)?;
            Current::from_amps(
                -sol.source_current(&ckt, "VBL")
                    .map_err(CellError::Simulation)?
                    .amps(),
            )
        };

        out.push(AssistPoint {
            level: vwl_read,
            rsnm,
            i_read,
            bl_delay: bitline_delay(library, i_read),
        });
    }
    Ok(out)
}

/// Fig. 3(a): RSNM and read current of HVT normalized to LVT at the
/// nominal (no-assist) bias. Returns `(rsnm_ratio, i_read_ratio)`.
///
/// # Errors
///
/// Propagates simulation failures.
fn hvt_vs_lvt_ratios(library: &DeviceLibrary) -> Result<(f64, f64), CellError> {
    let vdd = library.nominal_vdd();
    let bias = AssistVoltages::nominal(vdd);
    let hvt = CellCharacterizer::new(library, VtFlavor::Hvt).with_vtc_points(41);
    let lvt = CellCharacterizer::new(library, VtFlavor::Lvt).with_vtc_points(41);
    let rsnm_ratio = hvt.read_snm(&bias)?.volts() / lvt.read_snm(&bias)?.volts();
    let iread_ratio = hvt.read_current(&bias)? / lvt.read_current(&bias)?;
    Ok((rsnm_ratio, iread_ratio))
}

fn format_points(title: &str, level_name: &str, pts: &[AssistPoint], delta: Voltage) -> String {
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.level.millivolts()),
                format!("{:.1}", p.rsnm.millivolts()),
                format!("{:.2}", p.i_read.microamps()),
                format!("{:.1}", p.bl_delay.picoseconds()),
                if p.rsnm >= delta { "yes" } else { "no" }.to_owned(),
            ]
        })
        .collect();
    format!(
        "{title}\n\n{}",
        format_series(
            &[
                level_name,
                "RSNM[mV]",
                "I_read[uA]",
                "BL delay[ps]",
                "meets delta"
            ],
            &rows
        )
    )
}

/// Runs all four panels and formats them.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run() -> Result<String, CellError> {
    let lib = DeviceLibrary::sevennm();
    let delta = lib.nominal_vdd() * 0.35;
    let (rs, ir) = hvt_vs_lvt_ratios(&lib)?;
    let mut out = format!(
        "Fig. 3(a) — 6T-HVT vs 6T-LVT at nominal bias:\n  RSNM ratio = {rs:.2} (paper: 1.9)\n  I_read ratio = {ir:.2} (paper: ~0.5)\n\n"
    );
    out.push_str(&format_points(
        "Fig. 3(b) — Vdd boost (V_DDC sweep)",
        "V_DDC[mV]",
        &vdd_boost_sweep(&lib)?,
        delta,
    ));
    out.push('\n');
    out.push_str(&format_points(
        "Fig. 3(c) — negative Gnd (V_SSC sweep at V_DDC = 550 mV)",
        "V_SSC[mV]",
        &negative_gnd_sweep(&lib)?,
        delta,
    ));
    out.push('\n');
    out.push_str(&format_points(
        "Fig. 3(d) — wordline underdrive (read V_WL sweep)",
        "V_WL[mV]",
        &wl_underdrive_sweep(&lib)?,
        delta,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vdd_boost_raises_rsnm_without_slowing_the_bitline() {
        let lib = DeviceLibrary::sevennm();
        let pts = vdd_boost_sweep(&lib).unwrap();
        assert!(pts.last().unwrap().rsnm > pts[0].rsnm);
        // Bitline delay must not *increase* with the boost (Section 5:
        // V_DDC has "no impact on read delay" — in fact it helps slightly
        // since the access transistor sees more overdrive).
        assert!(pts.last().unwrap().bl_delay <= pts[0].bl_delay * 1.05);
    }

    #[test]
    fn negative_gnd_accelerates_the_bitline() {
        let lib = DeviceLibrary::sevennm();
        let pts = negative_gnd_sweep(&lib).unwrap();
        for p in &pts {
            assert_ne!(
                p.level.volts().to_bits(),
                (-0.0_f64).to_bits(),
                "-0 prints as -0"
            );
        }
        let gain = pts.last().unwrap().i_read / pts[0].i_read;
        assert!(gain > 2.0, "I_read gain = {gain:.2} (paper: 4.3x)");
        assert!(pts.last().unwrap().bl_delay < pts[0].bl_delay * 0.5);
    }

    #[test]
    fn wl_underdrive_trades_delay_for_margin() {
        let lib = DeviceLibrary::sevennm();
        let pts = wl_underdrive_sweep(&lib).unwrap();
        // Lower WL (earlier points) -> higher RSNM but slower bitline.
        let low = &pts[0]; // 250 mV
        let high = pts.last().unwrap(); // 500 mV
        assert!(low.rsnm > high.rsnm, "WLUD should raise RSNM");
        assert!(low.bl_delay > high.bl_delay, "WLUD should slow the read");
    }
}
