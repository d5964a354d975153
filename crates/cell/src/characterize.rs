//! The cell characterizer: simulation-backed measurements.

use crate::butterfly::butterfly_snm;
use crate::{AssistVoltages, CellError, Sram6t, Vtc, VtcHalf, VtcMode};
use sram_device::{DeviceLibrary, VtFlavor};
use sram_spice::DcSweep;
use sram_units::Voltage;

/// Measures 6T-cell figures of merit by circuit simulation.
///
/// One characterizer is bound to a device library, a cell flavor, and the
/// array supply `Vdd`. Measurements take an [`AssistVoltages`] bias so the
/// assist sweeps of Figs. 3 and 5 are plain loops over biases.
///
/// # Examples
///
/// ```no_run
/// use sram_cell::{AssistVoltages, CellCharacterizer};
/// use sram_device::{DeviceLibrary, VtFlavor};
///
/// # fn main() -> Result<(), sram_cell::CellError> {
/// let lib = DeviceLibrary::sevennm();
/// let chr = CellCharacterizer::new(&lib, VtFlavor::Hvt);
/// let bias = AssistVoltages::nominal(lib.nominal_vdd());
/// let hsnm = chr.hold_snm(&bias)?;
/// let rsnm = chr.read_snm(&bias)?;
/// assert!(hsnm > rsnm); // read access always disturbs
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CellCharacterizer {
    cell: Sram6t,
    vdd: Voltage,
    vtc_points: usize,
}

impl CellCharacterizer {
    /// Creates a characterizer for a nominal (variation-free) cell of the
    /// given flavor at the library's nominal supply.
    #[must_use]
    pub fn new(library: &DeviceLibrary, flavor: VtFlavor) -> Self {
        Self {
            cell: Sram6t::new(library, flavor),
            vdd: library.nominal_vdd(),
            vtc_points: 61,
        }
    }

    /// Overrides the array supply voltage (used by the Fig. 2 voltage
    /// scaling sweeps).
    #[must_use]
    pub fn with_vdd(mut self, vdd: Voltage) -> Self {
        self.vdd = vdd;
        self
    }

    /// Characterizes a specific cell instance (e.g. a Monte Carlo sample
    /// from [`Sram6t::with_variation`]).
    #[must_use]
    pub fn with_cell(mut self, cell: Sram6t) -> Self {
        self.cell = cell;
        self
    }

    /// Sets the number of VTC sweep points (trade accuracy for speed; the
    /// default is 61).
    ///
    /// # Panics
    ///
    /// Panics if `points < 8`.
    #[must_use]
    pub fn with_vtc_points(mut self, points: usize) -> Self {
        assert!(points >= 8, "need at least 8 VTC points");
        self.vtc_points = points;
        self
    }

    /// The cell under characterization.
    #[must_use]
    pub fn cell(&self) -> &Sram6t {
        &self.cell
    }

    /// The array supply voltage.
    #[must_use]
    pub fn vdd(&self) -> Voltage {
        self.vdd
    }

    /// Extracts the voltage-transfer curve of one half-cell under the
    /// given mode and bias, sweeping the input from `V_SSC` to `V_DDC`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    fn vtc(&self, half: VtcHalf, mode: VtcMode, bias: &AssistVoltages) -> Result<Vtc, CellError> {
        bias.validate().map_err(CellError::InvalidBias)?;
        let (ckt, _u, out) = self.cell.vtc_circuit(half, mode, bias, self.vdd);
        let points = DcSweep::new("VU", bias.vssc, bias.vddc, self.vtc_points).run(&ckt)?;
        Vtc::new(
            points
                .into_iter()
                .map(|p| (p.value, p.solution.voltage(out)))
                .collect(),
        )
    }

    /// Hold static noise margin from the hold-mode butterfly.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; reports a collapsed butterfly as
    /// [`CellError::MeasurementFailed`].
    pub fn hold_snm(&self, bias: &AssistVoltages) -> Result<Voltage, CellError> {
        self.snm(VtcMode::Hold, bias)
    }

    /// Read static noise margin from the read-mode butterfly (WL asserted,
    /// bitlines clamped at the precharge level).
    ///
    /// # Errors
    ///
    /// Propagates simulation failures; reports a collapsed butterfly as
    /// [`CellError::MeasurementFailed`].
    pub fn read_snm(&self, bias: &AssistVoltages) -> Result<Voltage, CellError> {
        self.snm(VtcMode::Read, bias)
    }

    /// The SNM of the butterfly of the two halves' VTCs. When the halves
    /// have equal devices (every nominal cell) they are the same netlist,
    /// so one sweep gives both curves.
    fn snm(&self, mode: VtcMode, bias: &AssistVoltages) -> Result<Voltage, CellError> {
        let left = self.vtc(VtcHalf::Left, mode, bias)?;
        if self.cell.halves_match() {
            return butterfly_snm(&left, &left);
        }
        let right = self.vtc(VtcHalf::Right, mode, bias)?;
        butterfly_snm(&left, &right)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> AssistVoltages {
        AssistVoltages::nominal(Voltage::from_millivolts(450.0))
    }

    #[test]
    fn read_snm_is_below_hold_snm() {
        let lib = DeviceLibrary::sevennm();
        let chr = CellCharacterizer::new(&lib, VtFlavor::Hvt).with_vtc_points(41);
        let hsnm = chr.hold_snm(&nominal()).unwrap();
        let rsnm = chr.read_snm(&nominal()).unwrap();
        assert!(
            rsnm < hsnm,
            "RSNM {rsnm} should be below HSNM {hsnm} (read disturb)"
        );
        assert!(hsnm.volts() > 0.05, "HSNM {hsnm} implausibly small");
    }

    #[test]
    fn hvt_margins_beat_lvt_margins() {
        let lib = DeviceLibrary::sevennm();
        let hvt = CellCharacterizer::new(&lib, VtFlavor::Hvt).with_vtc_points(41);
        let lvt = CellCharacterizer::new(&lib, VtFlavor::Lvt).with_vtc_points(41);
        let rsnm_hvt = hvt.read_snm(&nominal()).unwrap();
        let rsnm_lvt = lvt.read_snm(&nominal()).unwrap();
        assert!(
            rsnm_hvt > rsnm_lvt,
            "RSNM: HVT {rsnm_hvt} vs LVT {rsnm_lvt} — paper Fig. 3(a)"
        );
    }

    #[test]
    fn vdd_boost_improves_read_snm() {
        let lib = DeviceLibrary::sevennm();
        let chr = CellCharacterizer::new(&lib, VtFlavor::Hvt).with_vtc_points(41);
        let base = chr.read_snm(&nominal()).unwrap();
        let boosted = chr
            .read_snm(&nominal().with_vddc(Voltage::from_millivolts(550.0)))
            .unwrap();
        assert!(
            boosted > base,
            "Vdd boost must raise RSNM: {base} -> {boosted} (paper Fig. 3(b))"
        );
    }

    #[test]
    fn invalid_bias_is_rejected() {
        let lib = DeviceLibrary::sevennm();
        let chr = CellCharacterizer::new(&lib, VtFlavor::Hvt);
        let bad = nominal().with_vddc(Voltage::from_volts(-1.0));
        assert!(matches!(chr.read_snm(&bad), Err(CellError::InvalidBias(_))));
    }
}
