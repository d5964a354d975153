//! Section 5's read-current power-law regression:
//! `I_read = b · (V_DDC − V_SSC − Vt)^a`.
//!
//! The paper reports `a = 1.3`, `b = 9.5e-5 A/V^1.3`, `Vt = 335 mV` for
//! HVT, and claims a 4.3× read-current gain from `V_SSC = −240 mV` at
//! `V_DDC = 550 mV`. (The claim is internally inconsistent with the fit —
//! the formula gives 2.65×; see EXPERIMENTS.md. Our simulation, which
//! captures the storage-node drop to `V_SSC` raising both `Vgs` and `Vds`
//! of the access device, lands near the 4.3× figure.)

use sram_cell::{AssistVoltages, CellCharacterizer, CellError, ReadCurrentFit};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_units::{Current, Voltage};

/// Measures `I_read` over the `V_SSC` sweep at the paper's HVT operating
/// point (`V_DDC = 550 mV`) and regresses the three-parameter power law —
/// the same single-variable family the paper fits for its negative-Gnd
/// analysis. (A joint `(V_DDC, V_SSC)` grid does not collapse onto a 1-D
/// law: raising `V_DDC` strengthens the pull-down *gate* as well, which
/// the `V_DDC − V_SSC − Vt` abstraction cannot represent.)
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fit(library: &DeviceLibrary) -> Result<ReadCurrentFit, CellError> {
    let chr = CellCharacterizer::new(library, VtFlavor::Hvt);
    let vdd = library.nominal_vdd();
    let mut samples: Vec<(Voltage, Current)> = Vec::new();
    for k in 0..=12 {
        let vssc = Voltage::from_millivolts(-20.0 * f64::from(k));
        let bias = AssistVoltages::nominal(vdd)
            .with_vddc(Voltage::from_millivolts(550.0))
            .with_vssc(vssc);
        let i = chr.read_current(&bias)?;
        samples.push((bias.read_swing(), i));
    }
    ReadCurrentFit::fit(&samples)
}

/// The simulated negative-Gnd gain at the paper's Fig. 4 operating point.
///
/// # Errors
///
/// Propagates simulation failures.
fn negative_gnd_gain(library: &DeviceLibrary) -> Result<f64, CellError> {
    let chr = CellCharacterizer::new(library, VtFlavor::Hvt);
    let vdd = library.nominal_vdd();
    let base = AssistVoltages::nominal(vdd).with_vddc(Voltage::from_millivolts(550.0));
    let assisted = base.with_vssc(Voltage::from_millivolts(-240.0));
    Ok(chr.read_current(&assisted)? / chr.read_current(&base)?)
}

/// Runs the regression and formats the comparison with the paper.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run() -> Result<String, CellError> {
    let lib = DeviceLibrary::sevennm();
    let f = fit(&lib)?;
    let gain = negative_gnd_gain(&lib)?;
    Ok(format!(
        "Read-current fit I_read = b (V_DDC - V_SSC - Vt)^a over the simulated grid:\n\
         \n\
           a  = {:.3}        (paper: 1.3)\n\
           b  = {:.3e} A/V^a (paper: 9.5e-5)\n\
           Vt = {:.1} mV     (paper: 335 mV)\n\
           rms relative residual = {:.3}\n\
         \n\
         negative-Gnd gain at V_DDC = 550 mV, V_SSC: 0 -> -240 mV:\n\
           simulated: {:.2}x   paper text: 4.3x   paper's own fit formula: 2.65x\n",
        f.a,
        f.b,
        f.vt.millivolts(),
        f.rms_relative_error,
        gain,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regressed_exponent_is_near_paper() {
        let lib = DeviceLibrary::sevennm();
        let f = fit(&lib).unwrap();
        assert!(
            f.a > 1.0 && f.a < 1.9,
            "fitted exponent a = {:.3} far from the paper's 1.3",
            f.a
        );
        assert!(
            f.rms_relative_error < 0.25,
            "poor fit: {}",
            f.rms_relative_error
        );
    }

    #[test]
    fn simulated_gain_is_between_formula_and_text() {
        let lib = DeviceLibrary::sevennm();
        let gain = negative_gnd_gain(&lib).unwrap();
        assert!(gain > 2.0 && gain < 7.0, "gain = {gain:.2}");
    }
}
