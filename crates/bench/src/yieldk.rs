//! Extension A3: the paper's "accurate" statistical yield constraint
//! `min over margins of (μ − kσ) ≥ 0`, evaluated by Monte Carlo for
//! `k ∈ {1 … 6}` at the HVT-M2 operating point.

use crate::format_series;
use sram_cell::{
    AssistVoltages, CellCharacterizer, CellError, MonteCarloConfig, YieldAnalysis, YieldAnalyzer,
};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_units::Voltage;

/// Runs the Monte Carlo analysis at the HVT-M2 rails.
///
/// # Errors
///
/// Propagates simulation failures.
fn analyze(library: &DeviceLibrary, samples: usize) -> Result<YieldAnalysis, CellError> {
    let chr = CellCharacterizer::new(library, VtFlavor::Hvt);
    let bias = AssistVoltages::nominal(library.nominal_vdd())
        .with_vddc(Voltage::from_millivolts(550.0))
        .with_vssc(Voltage::from_millivolts(-240.0))
        .with_vwl(Voltage::from_millivolts(540.0));
    YieldAnalyzer::new(
        chr,
        MonteCarloConfig {
            samples,
            seed: 0xdac2016,
            vtc_points: 25,
        },
    )
    .run(&bias)
}

/// Formats the μ−kσ table for `k ∈ {1 … 6}`.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn run(samples: usize) -> Result<String, CellError> {
    let lib = DeviceLibrary::sevennm();
    let analysis = analyze(&lib, samples)?;
    let mut out = format!(
        "Monte Carlo yield at the HVT-M2 operating point ({} samples):\n\
         \n\
           HSNM: mu = {:.1} mV, sigma = {:.1} mV\n\
           RSNM: mu = {:.1} mV, sigma = {:.1} mV\n\
           WM:   mu = {:.1} mV, sigma = {:.1} mV\n\n",
        analysis.hsnm.samples,
        analysis.hsnm.mean.millivolts(),
        analysis.hsnm.sigma.millivolts(),
        analysis.rsnm.mean.millivolts(),
        analysis.rsnm.sigma.millivolts(),
        analysis.wm.mean.millivolts(),
        analysis.wm.sigma.millivolts(),
    );
    let rows: Vec<Vec<String>> = (1..=6)
        .map(|k| {
            let k = f64::from(k);
            vec![
                format!("{k:.0}"),
                format!("{:.1}", analysis.worst_statistical_margin(k).millivolts()),
                if analysis.passes(k) { "pass" } else { "FAIL" }.to_owned(),
            ]
        })
        .collect();
    out.push_str(&format_series(
        &["k", "min(mu - k*sigma)[mV]", "yield"],
        &rows,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistical_margin_decreases_with_k() {
        let lib = DeviceLibrary::sevennm();
        let analysis = analyze(&lib, 12).unwrap();
        let m1 = analysis.worst_statistical_margin(1.0);
        let m6 = analysis.worst_statistical_margin(6.0);
        assert!(m6 < m1);
        // At the assisted operating point the cell passes at least k = 1.
        assert!(analysis.passes(1.0), "mu - sigma < 0 looks wrong");
    }
}
