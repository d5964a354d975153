//! Warm-started DC sweeps.

use crate::{Circuit, DcSolution, DcSolver, SpiceError};
use sram_units::Voltage;

/// One point of a DC sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Swept source value at this point.
    pub value: Voltage,
    /// Operating point at this value.
    pub solution: DcSolution,
}

/// Sweeps the DC value of a named voltage source, warm-starting every
/// point from the previous solution — the primitive behind butterfly
/// curves (VTC extraction) and I-V characterization.
///
/// # Examples
///
/// ```
/// use sram_spice::{Circuit, DcSweep, Waveform};
/// use sram_units::Voltage;
///
/// # fn main() -> Result<(), sram_spice::SpiceError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// let m = ckt.node("m");
/// ckt.vsource("Vin", a, Circuit::GROUND, Waveform::Dc(0.0));
/// ckt.resistor("R1", a, m, 1e3);
/// ckt.resistor("R2", m, Circuit::GROUND, 1e3);
///
/// let points = DcSweep::new("Vin", Voltage::ZERO, Voltage::from_volts(1.0), 11)
///     .run(&ckt)?;
/// assert_eq!(points.len(), 11);
/// assert!((points[10].solution.voltage(m).volts() - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DcSweep {
    source: String,
    values: Vec<Voltage>,
}

impl DcSweep {
    /// Linear sweep of `source` from `start` to `stop` over `points`
    /// values (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`.
    #[must_use]
    pub fn new(source: &str, start: Voltage, stop: Voltage, points: usize) -> Self {
        assert!(points >= 2, "a sweep needs at least two points");
        let values = (0..points)
            .map(|i| start.lerp(stop, i as f64 / (points - 1) as f64))
            .collect();
        Self {
            source: source.to_owned(),
            values,
        }
    }

    /// Runs the sweep on a copy of `circuit`.
    ///
    /// # Errors
    ///
    /// Stops at the first point that fails and returns its error
    /// unchanged: [`SpiceError::UnknownElement`] when `circuit` has no
    /// voltage source by the sweep's name, otherwise the DC solver's
    /// error. The error does not carry the failing sweep value.
    pub fn run(&self, circuit: &Circuit) -> Result<Vec<SweepPoint>, SpiceError> {
        // One trace span for the whole sweep: per-point spans would make
        // a traced characterization's tree tens of times larger.
        let _trace = sram_probe::trace_span!("spice.dc_sweep");
        let mut ckt = circuit.clone();
        let mut out = Vec::with_capacity(self.values.len());
        let solver = DcSolver::new();
        // After the first point the solver is warm-started from the last.
        let mut guess = vec![0.0; ckt.unknown_count()];
        for &value in &self.values {
            ckt.set_source_voltage(&self.source, value)?;
            let solution = solver.solve_untraced(&ckt, &guess)?;
            guess = solution.as_vector().to_vec();
            out.push(SweepPoint { value, solution });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Waveform;
    use sram_device::{DeviceLibrary, FinFet, VtFlavor};

    #[test]
    fn sweep_covers_endpoints() {
        let s = DcSweep::new("V", Voltage::ZERO, Voltage::from_volts(0.45), 10);
        assert_eq!(s.values.first().copied().unwrap(), Voltage::ZERO);
        assert_eq!(s.values.last().copied().unwrap(), Voltage::from_volts(0.45));
    }

    #[test]
    fn inverter_vtc_is_monotone_falling() {
        let lib = DeviceLibrary::sevennm();
        let mut ckt = Circuit::new();
        let n_vdd = ckt.node("vdd");
        let n_in = ckt.node("in");
        let n_out = ckt.node("out");
        ckt.vsource("Vdd", n_vdd, Circuit::GROUND, Waveform::Dc(0.45));
        ckt.vsource("Vin", n_in, Circuit::GROUND, Waveform::Dc(0.0));
        ckt.fet(
            "MP",
            n_in,
            n_out,
            n_vdd,
            FinFet::new(lib.pfet(VtFlavor::Lvt).clone(), 1),
        );
        ckt.fet(
            "MN",
            n_in,
            n_out,
            Circuit::GROUND,
            FinFet::new(lib.nfet(VtFlavor::Lvt).clone(), 1),
        );
        let pts = DcSweep::new("Vin", Voltage::ZERO, Voltage::from_volts(0.45), 46)
            .run(&ckt)
            .unwrap();
        let outs: Vec<f64> = pts
            .iter()
            .map(|p| p.solution.voltage(n_out).volts())
            .collect();
        assert!(outs[0] > 0.44);
        assert!(outs[45] < 0.01);
        for w in outs.windows(2) {
            assert!(w[1] <= w[0] + 1e-7, "VTC not monotone: {w:?}");
        }
    }

    #[test]
    fn unknown_source_is_reported() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V", a, Circuit::GROUND, Waveform::Dc(1.0));
        ckt.resistor("R", a, Circuit::GROUND, 1.0);
        let err = DcSweep::new("nope", Voltage::ZERO, Voltage::from_volts(1.0), 2)
            .run(&ckt)
            .unwrap_err();
        assert!(matches!(err, SpiceError::UnknownElement(_)));
    }
}
