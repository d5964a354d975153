//! Figure 5: write-assist technique sweeps on the 6T-HVT cell.
//!
//! * (a) wordline overdrive (`V_WL`) — WM and cell write delay improve;
//!   yield crossing near `V_WL = 540 mV`;
//! * (b) negative bitline (`V_BL`) — WM improves, write delay improves
//!   faster; yield crossing near `V_BL = −100 mV`.

use crate::format_series;
use sram_cell::{AssistVoltages, CellCharacterizer, CellError};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_units::{Time, Voltage};

/// One sample of a write-assist sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteAssistPoint {
    /// Swept assist voltage (`V_WL` or `V_BL`).
    pub level: Voltage,
    /// Write margin under this bias.
    pub wm: Voltage,
    /// Cell-level write delay under this bias (`None` when the write
    /// fails inside the transient window).
    pub write_delay: Option<Time>,
}

/// Fig. 5(a): sweep `V_WL` from 450 mV to 650 mV.
///
/// # Errors
///
/// Propagates simulation failures.
fn wl_overdrive_sweep(library: &DeviceLibrary) -> Result<Vec<WriteAssistPoint>, CellError> {
    let chr = CellCharacterizer::new(library, VtFlavor::Hvt);
    let vdd = library.nominal_vdd();
    let mut out = Vec::new();
    for mv in (450..=650).step_by(25) {
        let vwl = Voltage::from_millivolts(f64::from(mv));
        let bias = AssistVoltages::nominal(vdd).with_vwl(vwl);
        out.push(WriteAssistPoint {
            level: vwl,
            wm: chr.write_margin(&bias)?,
            write_delay: delay_or_none(chr.write_delay(&bias))?,
        });
    }
    Ok(out)
}

/// Fig. 5(b): sweep `V_BL` from 0 to −200 mV (WL at nominal `Vdd`).
///
/// # Errors
///
/// Propagates simulation failures.
fn negative_bitline_sweep(library: &DeviceLibrary) -> Result<Vec<WriteAssistPoint>, CellError> {
    let chr = CellCharacterizer::new(library, VtFlavor::Hvt);
    let vdd = library.nominal_vdd();
    let mut out = Vec::new();
    for k in 0..=8 {
        // `0 − 25k`: the first level is +0, not −0 (which prints `-0`).
        let vbl = Voltage::from_millivolts(0.0 - 25.0 * f64::from(k));
        let bias = AssistVoltages::nominal(vdd).with_vbl(vbl);
        out.push(WriteAssistPoint {
            level: vbl,
            wm: chr.write_margin(&bias)?,
            write_delay: delay_or_none(chr.write_delay(&bias))?,
        });
    }
    Ok(out)
}

fn delay_or_none(result: Result<Time, CellError>) -> Result<Option<Time>, CellError> {
    match result {
        Ok(t) => Ok(Some(t)),
        Err(CellError::MeasurementFailed { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

fn format_points(
    title: &str,
    level_name: &str,
    pts: &[WriteAssistPoint],
    delta: Voltage,
) -> String {
    let rows: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.level.millivolts()),
                format!("{:.1}", p.wm.millivolts()),
                p.write_delay
                    .map_or_else(|| "fail".to_owned(), |t| format!("{:.2}", t.picoseconds())),
                if p.wm >= delta { "yes" } else { "no" }.to_owned(),
            ]
        })
        .collect();
    format!(
        "{title}\n\n{}",
        format_series(
            &[level_name, "WM[mV]", "write delay[ps]", "meets delta"],
            &rows
        )
    )
}

/// Runs both panels and formats them.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run() -> Result<String, CellError> {
    let lib = DeviceLibrary::sevennm();
    let delta = lib.nominal_vdd() * 0.35;
    let mut out = format_points(
        "Fig. 5(a) — wordline overdrive (V_WL sweep)",
        "V_WL[mV]",
        &wl_overdrive_sweep(&lib)?,
        delta,
    );
    out.push('\n');
    out.push_str(&format_points(
        "Fig. 5(b) — negative bitline (V_BL sweep)",
        "V_BL[mV]",
        &negative_bitline_sweep(&lib)?,
        delta,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wlod_improves_both_wm_and_delay() {
        let lib = DeviceLibrary::sevennm();
        let pts = wl_overdrive_sweep(&lib).unwrap();
        assert!(pts.last().unwrap().wm > pts[0].wm);
        let d_first = pts[0].write_delay.expect("nominal write should succeed");
        let d_last = pts.last().unwrap().write_delay.expect("overdriven write");
        assert!(d_last < d_first);
        // The yield crossing exists inside the swept range.
        let delta = lib.nominal_vdd() * 0.35;
        assert!(pts.iter().any(|p| p.wm >= delta));
        assert!(pts.iter().any(|p| p.wm < delta));
    }

    #[test]
    fn negative_bl_improves_wm() {
        let lib = DeviceLibrary::sevennm();
        let pts = negative_bitline_sweep(&lib).unwrap();
        assert!(pts.last().unwrap().wm > pts[0].wm);
        for p in &pts {
            assert_ne!(
                p.level.volts().to_bits(),
                (-0.0_f64).to_bits(),
                "-0 prints as -0"
            );
        }
    }
}
