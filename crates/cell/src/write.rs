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
//! The flip voltage is found by continuation: starting from the hold
//! state (wordline off, `Q = 1`), the search raises `V_WL` in strides and
//! warm-starts each plain-Newton step from the last solution that still
//! held `Q = 1`, until a one-cell step loses that branch at its fold. The
//! steps land on the cell grid of a 1 mV bisection of
//! `[0, 2·Vdd + |V_BL|]`, and the answer is that bisection's midpoint of
//! the cell holding the fold, to the bit.
//!
//! The write delay's transient ends at the first step whose waveforms
//! already hold both of its events, the wordline's 50 % crossing and
//! the `Q`/`QB` meeting after it: each is the first hit of a scan over
//! the samples in time order, so the rest of the 60 ps window could not
//! move either.

use crate::{AssistVoltages, CellCharacterizer, CellError};
use sram_spice::{CrossingEdge, DcSolver, Transient};
use sram_units::{Time, Voltage};

/// Grid cells in the flip search's first stride (a power of two).
const FIRST_STRIDE: usize = 32;

/// Newton iterations a continuation step may take before it counts as
/// having lost the `Q = 1` branch.
const STEP_ITERATIONS: usize = 20;

/// The grid the flip search walks: the final cells of a bisection that
/// halves `[0, top]` until a cell is at most 1 mV wide. Every point is
/// the value that bisection computes for it, so the search can return
/// the bisection's answer to the bit.
struct FlipGrid {
    top: Voltage,
    /// Number of final cells, a power of two.
    cells: usize,
}

impl FlipGrid {
    /// The bisection's halving loop, run down its lowest cell: the
    /// count of halvings sets the cell count.
    fn new(top: Voltage) -> Self {
        let mut width = top;
        let mut cells = 1;
        while width.millivolts() > 1.0 {
            width = width * 0.5;
            cells *= 2;
        }
        Self { top, cells }
    }

    /// Bounds of cell `i` (`i < cells`) as the bisection computes them
    /// when every midpoint above the cell flips it and every other
    /// holds: the same `lo.lerp(hi, 0.5)` steps in the same order.
    fn cell(&self, i: usize) -> (Voltage, Voltage) {
        let (mut lo, mut hi) = (Voltage::ZERO, self.top);
        let (mut lo_i, mut hi_i) = (0, self.cells);
        while hi_i - lo_i > 1 {
            let mid = lo.lerp(hi, 0.5);
            let mid_i = (lo_i + hi_i) / 2;
            if i < mid_i {
                (hi, hi_i) = (mid, mid_i);
            } else {
                (lo, lo_i) = (mid, mid_i);
            }
        }
        (lo, hi)
    }

    /// Grid point `i` (`i ≤ cells`).
    fn point(&self, i: usize) -> Voltage {
        if i == self.cells {
            self.top
        } else {
            self.cell(i).0
        }
    }
}

impl CellCharacterizer {
    /// Minimum wordline voltage that flips the cell, by continuation
    /// along the `Q = 1` branch.
    ///
    /// The search solves the hold state (wordline off, pinned toward
    /// `Q = 1`), then raises `V_WL` over the final cells of a 1 mV
    /// bisection of `[0, 2·Vdd + |V_BL|]`, 32 cells per stride at first.
    /// Each step is a plain-Newton solve
    /// ([`DcSolver::continue_from`], at most 20 iterations) warm-started
    /// from the last solution that held `Q = 1`. A step that fails or
    /// lands flipped halves the stride; the first one-cell step that
    /// does not hold puts the fold in that cell. The result is the
    /// midpoint that bisection returns for the cell, computed with its
    /// halving arithmetic.
    ///
    /// # Errors
    ///
    /// [`CellError::BracketingFailed`] when the cell still holds at
    /// `2 × Vdd + |V_BL|`; [`CellError::InvalidBias`] for a bias outside
    /// the modeled range; a simulation failure of the hold-state solve.
    pub fn wordline_flip_voltage(&self, bias: &AssistVoltages) -> Result<Voltage, CellError> {
        bias.validate().map_err(CellError::InvalidBias)?;
        let _trace = sram_probe::trace_span!("cell.wm_flip_search");
        let grid = FlipGrid::new(self.vdd() * 2.0 + bias.vbl.abs());
        let held = self.last_held_point(bias, &grid)?;
        if held == grid.cells {
            return Err(CellError::BracketingFailed {
                what: "wordline flip voltage",
            });
        }
        let (lo, hi) = grid.cell(held);
        Ok(lo.lerp(hi, 0.5))
    }

    /// The highest point of `grid` that the walk up the `Q = 1` branch
    /// reaches: the fold lies in the cell above it, or the cell never
    /// flips on the grid when this is `grid.cells`.
    fn last_held_point(&self, bias: &AssistVoltages, grid: &FlipGrid) -> Result<usize, CellError> {
        let (mut ckt, nodes) = self
            .cell()
            .write_dc_circuit(bias, self.vdd(), Voltage::ZERO);
        let mut held = DcSolver::new()
            .nodeset(nodes.q, bias.vddc)
            .nodeset(nodes.qb, bias.vssc)
            .solve(&ckt)?;
        let step = DcSolver::new().with_max_iterations(STEP_ITERATIONS);
        let mut at = 0;
        // `at` stays a multiple of `stride`, and `grid.cells` is one too,
        // so no step overshoots the top.
        let mut stride = FIRST_STRIDE.min(grid.cells);
        while at < grid.cells {
            let next = at + stride;
            ckt.set_source_voltage("VWL", grid.point(next))?;
            match step.continue_from(&ckt, &held) {
                Ok(sol) if sol.voltage(nodes.q) >= sol.voltage(nodes.qb) => {
                    (at, held) = (next, sol);
                }
                _ if stride == 1 => return Ok(at),
                _ => stride /= 2,
            }
        }
        Ok(at)
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
    /// crossing 50 % of `Vdd` to `Q` meeting `QB`. The run ends at the
    /// first accepted step where both events are on the trace; a cell
    /// that does not flip runs the whole 60 ps window.
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
        let wl_level = self.vdd() * 0.5;
        // The two scans below, one segment per accepted step: the WL
        // crossing until it is found, then the meeting from the first
        // segment on, as `meeting_time` walks it.
        let mut wl_half = None;
        let mut next_segment = 1;
        let result = Transient::new(Time::from_picoseconds(60.0), Time::from_picoseconds(0.25))
            .with_initial_solver(
                DcSolver::new()
                    .nodeset(nodes.q, bias.vddc)
                    .nodeset(nodes.qb, bias.vssc),
            )
            .run_until(&ckt, |trace| {
                let last = trace.len() - 1;
                wl_half = wl_half.or_else(|| {
                    trace.segment_crossing(
                        last,
                        nodes.wl,
                        wl_level,
                        CrossingEdge::Rising,
                        Time::ZERO,
                    )
                });
                let Some(after) = wl_half else {
                    return false;
                };
                let met = (next_segment..=last)
                    .any(|k| trace.segment_meeting(k, nodes.q, nodes.qb, after).is_some());
                next_segment = last + 1;
                met
            })?;
        let trace = result.trace();
        let wl_half = trace
            .crossing(nodes.wl, wl_level, CrossingEdge::Rising, Time::ZERO)
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
