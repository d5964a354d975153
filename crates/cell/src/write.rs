//! Write margin and cell-level write delay.
//!
//! Paper definitions (Section 3.2):
//!
//! * **Write margin (WM)**: headroom between the applied wordline level
//!   and the minimum wordline voltage that flips the cell content,
//!   `WM = V_WL,applied − V_WL,min-flip`. At `V_WL = Vdd` this reduces to
//!   the paper's "difference between Vdd and the minimum WL voltage needed
//!   to flip" [9]; wordline overdrive raises the applied level (WM grows),
//!   a negative bitline lowers the flip voltage (WM also grows) — exactly
//!   the two trends of Fig. 5.
//! * **Cell write delay**: time from the wordline reaching 50 % of `Vdd`
//!   until `Q` and `QB` cross.
//!
//! Each flip probe is a DC solve pinned toward `Q = 1`. Just past the
//! fold where that state vanishes, Newton can fail to converge; such a
//! probe is answered by letting the cell settle instead (a transient from
//! the stored state with the wordline stepped to the probe level), so one
//! hard cell never fails a Monte Carlo run.

use crate::{AssistVoltages, CellCharacterizer, CellError};
use sram_spice::{CrossingEdge, DcSolver, SpiceError, Transient};
use sram_units::{Time, Voltage};

impl CellCharacterizer {
    /// Checks whether a DC write with the wordline at `vwl_test` flips a
    /// cell that stores `Q = 1` (BL driven to `bias.vbl`, BLB at `Vdd`).
    ///
    /// When the DC solve does not converge, the probe lets the cell
    /// settle instead: a transient from the stored state with the
    /// wordline stepped to `vwl_test` decides, and
    /// `cell.wm_probe_fallbacks` counts it. Every probe that converges
    /// keeps its DC decision.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures other than DC non-convergence.
    pub fn write_flips(&self, bias: &AssistVoltages, vwl_test: Voltage) -> Result<bool, CellError> {
        let (ckt, nodes) = self.cell().write_dc_circuit(bias, self.vdd(), vwl_test);
        let solved = DcSolver::new()
            .nodeset(nodes.q, bias.vddc)
            .nodeset(nodes.qb, bias.vssc)
            .solve(&ckt);
        match solved {
            Ok(sol) => Ok(sol.voltage(nodes.q) < sol.voltage(nodes.qb)),
            Err(SpiceError::NonConvergent { .. }) => {
                sram_probe::probe_inc!("cell.wm_probe_fallbacks");
                self.write_settles_flipped(bias, vwl_test)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Whether the cell, storing `Q = 1` with the wordline off, ends up
    /// flipped 2 ns after the wordline steps to `vwl_test` (BL at
    /// `bias.vbl`, BLB at `Vdd`): the dynamic form of
    /// [`CellCharacterizer::write_flips`]. Only the final state is kept,
    /// so memory does not grow with the step count.
    ///
    /// The flip slows down toward the fold, so 2 ns is an assumed
    /// settling time: 0.05 mV past the fold a varied cell takes about
    /// 1 ns. `tests/write_fallback.rs` holds every fallback in a 0.1 mV
    /// scan around the flip of each known non-converging cell to a
    /// 20 ns run.
    fn write_settles_flipped(
        &self,
        bias: &AssistVoltages,
        vwl_test: Voltage,
    ) -> Result<bool, CellError> {
        let (ckt, nodes) = self.cell().write_transient_circuit(
            &bias.with_vwl(vwl_test),
            self.vdd(),
            Time::from_picoseconds(2.0),
            Time::from_picoseconds(0.5),
        );
        let end = Transient::new(Time::from_nanoseconds(2.0), Time::from_picoseconds(2.0))
            .with_initial_solver(
                DcSolver::new()
                    .nodeset(nodes.q, bias.vddc)
                    .nodeset(nodes.qb, bias.vssc),
            )
            .final_state(&ckt)?;
        Ok(end.voltage(nodes.q) < end.voltage(nodes.qb))
    }

    /// Minimum wordline voltage that flips the cell, by bisection.
    ///
    /// # Errors
    ///
    /// [`CellError::BracketingFailed`] when even `2 × Vdd + |V_BL|` cannot
    /// flip the cell; simulation failures otherwise.
    pub fn wordline_flip_voltage(&self, bias: &AssistVoltages) -> Result<Voltage, CellError> {
        bias.validate().map_err(CellError::InvalidBias)?;
        let mut lo = Voltage::ZERO; // never flips with WL off
        let mut hi = self.vdd() * 2.0 + bias.vbl.abs();
        if !self.write_flips(bias, hi)? {
            return Err(CellError::BracketingFailed {
                what: "wordline flip voltage",
            });
        }
        // 1 mV resolution.
        while (hi - lo).millivolts() > 1.0 {
            let mid = lo.lerp(hi, 0.5);
            if self.write_flips(bias, mid)? {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Ok(lo.lerp(hi, 0.5))
    }

    /// Write margin: `bias.vwl − wordline_flip_voltage(bias)`.
    ///
    /// Negative values mean the applied wordline level cannot flip the
    /// cell at all.
    ///
    /// # Errors
    ///
    /// Same as [`CellCharacterizer::wordline_flip_voltage`].
    pub fn write_margin(&self, bias: &AssistVoltages) -> Result<Voltage, CellError> {
        Ok(bias.vwl - self.wordline_flip_voltage(bias)?)
    }

    /// Cell-level write delay: transient simulation of a `1 → 0` write.
    /// The wordline steps to `bias.vwl`; the delay runs from the WL
    /// crossing 50 % of `Vdd` to `Q` meeting `QB`.
    ///
    /// # Errors
    ///
    /// [`CellError::MeasurementFailed`] when the cell does not flip within
    /// the simulation window (write failure — expect this when
    /// `write_margin` is negative); simulation failures otherwise.
    pub fn write_delay(&self, bias: &AssistVoltages) -> Result<Time, CellError> {
        bias.validate().map_err(CellError::InvalidBias)?;
        let t_start = Time::from_picoseconds(2.0);
        let t_rise = Time::from_picoseconds(0.5);
        let (ckt, nodes) = self
            .cell()
            .write_transient_circuit(bias, self.vdd(), t_start, t_rise);
        let result = Transient::new(Time::from_picoseconds(60.0), Time::from_picoseconds(0.25))
            .with_initial_solver(
                DcSolver::new()
                    .nodeset(nodes.q, bias.vddc)
                    .nodeset(nodes.qb, bias.vssc),
            )
            .run(&ckt)?;
        let trace = result.trace();
        let wl_half = trace
            .crossing(nodes.wl, self.vdd() * 0.5, CrossingEdge::Rising, Time::ZERO)
            .ok_or_else(|| CellError::MeasurementFailed {
                what: "write delay",
                reason: "wordline never reached 50% of Vdd".into(),
            })?;
        let meet = trace
            .meeting_time(nodes.q, nodes.qb, wl_half)
            .ok_or_else(|| CellError::MeasurementFailed {
                what: "write delay",
                reason: "Q never met QB (write failed)".into(),
            })?;
        Ok(meet - wl_half)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_device::{DeviceLibrary, VtFlavor};

    fn vdd() -> Voltage {
        Voltage::from_millivolts(450.0)
    }

    fn chr(flavor: VtFlavor) -> CellCharacterizer {
        CellCharacterizer::new(&DeviceLibrary::sevennm(), flavor)
    }

    #[test]
    fn wordline_off_never_flips() {
        let c = chr(VtFlavor::Hvt);
        let bias = AssistVoltages::nominal(vdd());
        assert!(!c.write_flips(&bias, Voltage::ZERO).unwrap());
    }

    #[test]
    fn strong_wordline_flips() {
        let c = chr(VtFlavor::Hvt);
        let bias = AssistVoltages::nominal(vdd());
        assert!(c.write_flips(&bias, Voltage::from_volts(0.9)).unwrap());
    }

    #[test]
    fn settling_agrees_with_converged_probes_either_side_of_the_flip() {
        for flavor in [VtFlavor::Lvt, VtFlavor::Hvt] {
            let c = chr(flavor);
            let bias = AssistVoltages::nominal(vdd());
            let flip = c.wordline_flip_voltage(&bias).unwrap();
            for (offset_mv, flips) in [(-20.0, false), (20.0, true)] {
                let v = flip + Voltage::from_millivolts(offset_mv);
                assert_eq!(
                    c.write_flips(&bias, v).unwrap(),
                    flips,
                    "{flavor} DC at {v}"
                );
                assert_eq!(
                    c.write_settles_flipped(&bias, v).unwrap(),
                    flips,
                    "{flavor} transient at {v}"
                );
            }
        }
    }

    #[test]
    fn flip_voltage_is_between_rails() {
        let c = chr(VtFlavor::Hvt);
        let bias = AssistVoltages::nominal(vdd());
        let v = c.wordline_flip_voltage(&bias).unwrap();
        assert!(v.volts() > 0.05 && v.volts() < 0.9, "flip voltage = {v}");
    }

    #[test]
    fn wl_overdrive_raises_write_margin() {
        let c = chr(VtFlavor::Hvt);
        let base = c.write_margin(&AssistVoltages::nominal(vdd())).unwrap();
        let od = c
            .write_margin(&AssistVoltages::nominal(vdd()).with_vwl(Voltage::from_millivolts(540.0)))
            .unwrap();
        assert!(od > base, "WLOD: {base} -> {od} (paper Fig. 5(a))");
    }

    #[test]
    fn negative_bitline_raises_write_margin() {
        let c = chr(VtFlavor::Hvt);
        let base = c.write_margin(&AssistVoltages::nominal(vdd())).unwrap();
        let nbl = c
            .write_margin(
                &AssistVoltages::nominal(vdd()).with_vbl(Voltage::from_millivolts(-100.0)),
            )
            .unwrap();
        assert!(nbl > base, "negative BL: {base} -> {nbl} (paper Fig. 5(b))");
    }

    #[test]
    fn write_delay_is_picoseconds_and_shrinks_with_wlod() {
        let c = chr(VtFlavor::Hvt);
        let base = c.write_delay(&AssistVoltages::nominal(vdd())).unwrap();
        assert!(
            base.picoseconds() > 0.1 && base.picoseconds() < 50.0,
            "write delay = {base}"
        );
        let od = c
            .write_delay(&AssistVoltages::nominal(vdd()).with_vwl(Voltage::from_millivolts(560.0)))
            .unwrap();
        assert!(od < base, "WLOD should speed the flip: {base} -> {od}");
    }
}
