//! Transient (time-domain) analysis.
//!
//! Integration scheme: the initial operating point comes from a DC solve
//! at `t = 0`; the first accepted step uses backward Euler (self-starting,
//! L-stable), subsequent steps use the trapezoidal rule (2nd order, no
//! numerical damping of the waveforms we measure delays on). Each step
//! runs a Newton inner loop; non-convergence or an excessive voltage
//! change halves the step, smooth behaviour grows it back toward
//! `dt_max`.

use crate::circuit::Circuit;
use crate::linalg::Matrix;
use crate::measure::Trace;
use crate::mna::{assemble, init_cap_state, update_cap_state, AssemblyOptions, Integration};
use crate::{DcSolution, DcSolver, SpiceError};
use sram_units::Time;

/// Configuration of a transient run.
#[derive(Debug, Clone)]
pub struct Transient {
    t_stop: f64,
    dt_max: f64,
    dt_min: f64,
    max_dv_per_step: f64,
    newton_iterations: usize,
    dc_solver: DcSolver,
}

impl Transient {
    /// Creates a transient analysis until `t_stop` with maximum step
    /// `dt_max`.
    ///
    /// # Panics
    ///
    /// Panics if `t_stop` or `dt_max` are not strictly positive.
    #[must_use]
    pub fn new(t_stop: Time, dt_max: Time) -> Self {
        assert!(t_stop.seconds() > 0.0, "t_stop must be positive");
        assert!(dt_max.seconds() > 0.0, "dt_max must be positive");
        Self {
            t_stop: t_stop.seconds(),
            dt_max: dt_max.seconds(),
            dt_min: dt_max.seconds() * 1e-7,
            max_dv_per_step: 0.05,
            newton_iterations: 60,
            dc_solver: DcSolver::new(),
        }
    }

    /// Uses a custom DC solver (e.g. with nodesets to pick the initial
    /// state of a bistable cell) for the `t = 0` operating point.
    #[must_use]
    pub fn with_initial_solver(mut self, solver: DcSolver) -> Self {
        self.dc_solver = solver;
        self
    }

    /// Limits the accepted per-step node-voltage change (default 50 mV);
    /// smaller values force finer time resolution around fast edges.
    #[must_use]
    pub fn with_max_dv_per_step(mut self, volts: f64) -> Self {
        assert!(volts > 0.0, "max dv must be positive");
        self.max_dv_per_step = volts;
        self
    }

    /// Runs the analysis.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::TimestepTooSmall`] when step halving bottoms out,
    /// * any DC-solver error from the initial operating point,
    /// * [`SpiceError::SingularMatrix`] for defective netlists.
    pub fn run(&self, circuit: &Circuit) -> Result<TransientResult, SpiceError> {
        self.run_until(circuit, |_| false)
    }

    /// Runs the analysis until `t_stop`, or until `stop` returns `true`
    /// for the waveforms recorded so far. `stop` is asked after each
    /// accepted step, so a measurement that a prefix of the run already
    /// settles (a first crossing, say) need not pay for the rest of it.
    /// A `stop` that never fires makes this [`Transient::run`].
    ///
    /// # Errors
    ///
    /// Same as [`Transient::run`], for the steps taken.
    pub fn run_until(
        &self,
        circuit: &Circuit,
        mut stop: impl FnMut(&Trace) -> bool,
    ) -> Result<TransientResult, SpiceError> {
        let mut trace = Trace::new(circuit.node_count(), Vec::new(), Vec::new());
        self.integrate(circuit, |t, x| {
            trace.push(t, x);
            trace.len() > 1 && stop(&trace)
        })?;
        Ok(TransientResult { trace })
    }

    /// Runs the analysis and keeps only the state at `t_stop`, in the
    /// form of an operating point: memory stays constant however many
    /// steps the run takes. Use it when only the end state matters
    /// (e.g. whether a cell flipped).
    ///
    /// # Errors
    ///
    /// Same as [`Transient::run`].
    pub fn final_state(&self, circuit: &Circuit) -> Result<DcSolution, SpiceError> {
        let x = self.integrate(circuit, |_, _| false)?;
        Ok(DcSolution::new(x, circuit.node_count()))
    }

    /// The time-stepping loop: hands every accepted `(t, x)` (the DC
    /// operating point at `t = 0` first) to `on_step`, ends early when
    /// that returns `true`, and returns the last state.
    fn integrate(
        &self,
        circuit: &Circuit,
        mut on_step: impl FnMut(f64, &[f64]) -> bool,
    ) -> Result<Vec<f64>, SpiceError> {
        sram_probe::probe_inc!("spice.transient_runs");
        let _span = sram_probe::probe_span!("spice.transient_ns");
        let _trace = sram_probe::trace_span!("spice.transient");
        let n = circuit.unknown_count();
        let dc = self.dc_solver.solve_with_guess(circuit, &vec![0.0; n])?;
        let mut x = dc.as_vector().to_vec();
        let mut cap_state = init_cap_state(circuit, &x);
        if on_step(0.0, &x) {
            return Ok(x);
        }

        let mut jacobian = Matrix::zeros(n);
        let mut residual = vec![0.0; n];

        let mut t = 0.0;
        let mut dt = self.dt_max / 100.0;
        let mut first_step = true;

        while t < self.t_stop {
            dt = dt.min(self.t_stop - t).min(self.dt_max);
            let t_next = t + dt;
            let integration = if first_step {
                Integration::BackwardEuler { h: dt }
            } else {
                Integration::Trapezoidal { h: dt }
            };
            let mut x_try = x.clone();
            let converged = self.newton_step(
                circuit,
                &mut x_try,
                t_next,
                integration,
                &cap_state,
                &mut jacobian,
                &mut residual,
            )?;
            let n_node_unknowns = circuit.node_count() - 1;
            let max_dv = x_try
                .iter()
                .zip(x.iter())
                .take(n_node_unknowns)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);

            if !converged || max_dv > self.max_dv_per_step {
                sram_probe::probe_inc!("spice.transient_rejected_steps");
                dt /= 2.0;
                if dt < self.dt_min {
                    return Err(SpiceError::TimestepTooSmall { at_seconds: t });
                }
                continue;
            }

            // Accept the step.
            sram_probe::probe_inc!("spice.transient_steps");
            update_cap_state(circuit, &x_try, integration, &mut cap_state);
            x = x_try;
            t = t_next;
            first_step = false;
            if on_step(t, &x) {
                break;
            }
            if max_dv < self.max_dv_per_step / 4.0 {
                dt *= 1.5;
            }
        }
        Ok(x)
    }

    #[allow(clippy::too_many_arguments)]
    fn newton_step(
        &self,
        circuit: &Circuit,
        x: &mut [f64],
        time: f64,
        integration: Integration,
        cap_state: &crate::mna::CapState,
        jacobian: &mut Matrix,
        residual: &mut [f64],
    ) -> Result<bool, SpiceError> {
        let options = AssemblyOptions {
            gmin: 1e-12,
            source_scale: 1.0,
            time,
            integration,
        };
        let n_node_unknowns = circuit.node_count() - 1;
        for _ in 0..self.newton_iterations {
            assemble(circuit, x, options, Some(cap_state), jacobian, residual)?;
            let mut delta: Vec<f64> = residual.iter().map(|r| -r).collect();
            jacobian.solve_in_place(&mut delta)?;
            let mut max_dv: f64 = 0.0;
            for (i, d) in delta.iter_mut().enumerate() {
                if i < n_node_unknowns {
                    if d.abs() > 0.3 {
                        *d = 0.3 * d.signum();
                    }
                    max_dv = max_dv.max(d.abs());
                }
                x[i] += *d;
            }
            if max_dv < 1e-9 {
                return Ok(true);
            }
        }
        Ok(false)
    }
}

/// Result of a transient analysis.
#[derive(Debug, Clone)]
pub struct TransientResult {
    trace: Trace,
}

impl TransientResult {
    /// The recorded waveforms.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the result, returning the waveforms.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, CrossingEdge, Waveform};
    use sram_device::{DeviceLibrary, FinFet, VtFlavor};
    use sram_units::{Time, Voltage};

    #[test]
    fn rc_charge_matches_analytic() {
        // 1 kΩ / 1 fF: tau = 1 ps. Step at t = 0.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.vsource(
            "V",
            a,
            Circuit::GROUND,
            Waveform::step(
                Voltage::ZERO,
                Voltage::from_volts(1.0),
                Time::from_femtoseconds(1.0),
                Time::from_femtoseconds(1.0),
            ),
        );
        ckt.resistor("R", a, out, 1.0e3);
        ckt.capacitor("C", out, Circuit::GROUND, 1.0e-15);
        let result = Transient::new(Time::from_picoseconds(6.0), Time::from_femtoseconds(20.0))
            .with_max_dv_per_step(0.01)
            .run(&ckt)
            .unwrap();
        let trace = result.trace();
        // v(tau) = 1 - 1/e ≈ 0.632.
        let v_tau = trace.voltage_at(out, Time::from_picoseconds(1.0)).volts();
        assert!((v_tau - 0.632).abs() < 0.02, "v(tau) = {v_tau}");
        let v_end = trace.final_voltage(out).volts();
        assert!((v_end - 1.0).abs() < 5e-3, "v(end) = {v_end}");
    }

    #[test]
    fn inverter_propagates_and_delay_is_measurable() {
        let lib = DeviceLibrary::sevennm();
        let mut ckt = Circuit::new();
        let n_vdd = ckt.node("vdd");
        let n_in = ckt.node("in");
        let n_out = ckt.node("out");
        ckt.vsource("Vdd", n_vdd, Circuit::GROUND, Waveform::Dc(0.45));
        ckt.vsource(
            "Vin",
            n_in,
            Circuit::GROUND,
            Waveform::step(
                Voltage::ZERO,
                Voltage::from_volts(0.45),
                Time::from_picoseconds(2.0),
                Time::from_picoseconds(1.0),
            ),
        );
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
        ckt.capacitor("CL", n_out, Circuit::GROUND, 0.2e-15);
        let result = Transient::new(Time::from_picoseconds(30.0), Time::from_picoseconds(0.2))
            .run(&ckt)
            .unwrap();
        let trace = result.trace();
        assert!(trace.voltage_at(n_out, Time::from_picoseconds(1.0)).volts() > 0.4);
        assert!(trace.final_voltage(n_out).volts() < 0.02);
        let t_in = trace
            .crossing(
                n_in,
                Voltage::from_volts(0.225),
                CrossingEdge::Rising,
                Time::ZERO,
            )
            .expect("input crossing");
        let t_out = trace
            .crossing(
                n_out,
                Voltage::from_volts(0.225),
                CrossingEdge::Falling,
                Time::ZERO,
            )
            .expect("output crossing");
        let delay = t_out - t_in;
        assert!(
            delay.picoseconds() > 0.0 && delay.picoseconds() < 20.0,
            "delay = {delay}"
        );
    }

    #[test]
    fn final_state_is_the_last_recorded_point() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let out = ckt.node("out");
        ckt.vsource(
            "V",
            a,
            Circuit::GROUND,
            Waveform::step(
                Voltage::ZERO,
                Voltage::from_volts(1.0),
                Time::from_femtoseconds(1.0),
                Time::from_femtoseconds(1.0),
            ),
        );
        ckt.resistor("R", a, out, 1.0e3);
        ckt.capacitor("C", out, Circuit::GROUND, 1.0e-15);
        let analysis = Transient::new(Time::from_picoseconds(3.0), Time::from_femtoseconds(50.0));
        let trace = analysis.run(&ckt).unwrap().into_trace();
        let end = analysis.final_state(&ckt).unwrap();
        for node in [a, out] {
            assert_eq!(end.voltage(node), trace.final_voltage(node));
        }
    }

    #[test]
    fn a_stopped_run_is_a_prefix_of_the_full_run() {
        let lib = DeviceLibrary::sevennm();
        let mut ckt = Circuit::new();
        let n_vdd = ckt.node("vdd");
        let n_in = ckt.node("in");
        let n_out = ckt.node("out");
        ckt.vsource("Vdd", n_vdd, Circuit::GROUND, Waveform::Dc(0.45));
        ckt.vsource(
            "Vin",
            n_in,
            Circuit::GROUND,
            Waveform::step(
                Voltage::ZERO,
                Voltage::from_volts(0.45),
                Time::from_picoseconds(2.0),
                Time::from_picoseconds(1.0),
            ),
        );
        ckt.fet(
            "MN",
            n_in,
            n_out,
            Circuit::GROUND,
            FinFet::new(lib.nfet(VtFlavor::Lvt).clone(), 1),
        );
        ckt.resistor("RL", n_vdd, n_out, 1.0e5);
        ckt.capacitor("CL", n_out, Circuit::GROUND, 0.2e-15);
        let analysis = Transient::new(Time::from_picoseconds(30.0), Time::from_picoseconds(0.2));
        let full = analysis.run(&ckt).unwrap().into_trace();
        let mut asked = 0;
        let stopped = analysis
            .run_until(&ckt, |trace| {
                asked += 1;
                assert_eq!(trace.len(), asked + 1, "asked once per accepted step");
                trace.len() == 12
            })
            .unwrap()
            .into_trace();
        assert!(full.len() > 12);
        assert_eq!(stopped.len(), 12);
        let bits = |trace: &Trace, k: usize| {
            let t = trace.times().nth(k).unwrap();
            let v = trace.samples(n_out)[k].1;
            (t.seconds().to_bits(), v.volts().to_bits())
        };
        for k in 0..12 {
            assert_eq!(bits(&stopped, k), bits(&full, k), "sample {k}");
        }
    }

    #[test]
    #[should_panic(expected = "t_stop")]
    fn zero_t_stop_is_rejected() {
        let _ = Transient::new(Time::ZERO, Time::from_picoseconds(1.0));
    }
}
