//! Nonlinear DC operating-point analysis.

use crate::circuit::Circuit;
use crate::linalg::Matrix;
use crate::mna::{assemble, AssemblyOptions, Indexer, Integration};
use crate::{NodeId, SpiceError};
use sram_units::{Current, Voltage};

/// Result of a DC analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    pub(crate) x: Vec<f64>,
    n_nodes: usize,
}

impl DcSolution {
    pub(crate) fn new(x: Vec<f64>, n_nodes: usize) -> Self {
        Self { x, n_nodes }
    }

    /// Voltage of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the solved circuit.
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> Voltage {
        let i = node.index();
        assert!(i < self.n_nodes, "node does not belong to this circuit");
        if i == 0 {
            Voltage::ZERO
        } else {
            Voltage::from_volts(self.x[i - 1])
        }
    }

    /// Current through the voltage source with branch index `branch`
    /// (see [`Circuit::source_branch`]). Positive current flows *into the
    /// positive terminal* — a supply delivering power reports a negative
    /// value.
    fn branch_current(&self, branch: usize) -> Current {
        Current::from_amps(self.x[self.n_nodes - 1 + branch])
    }

    /// Current through a named voltage source.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::UnknownElement`] if the name is not a voltage
    /// source of `circuit`.
    pub fn source_current(&self, circuit: &Circuit, name: &str) -> Result<Current, SpiceError> {
        Ok(self.branch_current(circuit.source_branch(name)?))
    }

    /// The raw unknown vector (node voltages then branch currents).
    #[must_use]
    pub fn as_vector(&self) -> &[f64] {
        &self.x
    }
}

/// Newton-Raphson DC solver with homotopy fallbacks.
///
/// Robustness strategy, in order:
/// 1. plain Newton from the supplied guess (or all zeros),
/// 2. `gmin` stepping: solve with a large shunt conductance, then tighten
///    it decade by decade, warm-starting each stage,
/// 3. source stepping: ramp all independent sources from 0 to 100 %.
///
/// Bistable circuits (an SRAM cell!) have multiple valid operating points;
/// use [`DcSolver::nodeset`] to bias convergence toward the intended one.
#[derive(Debug, Clone)]
pub struct DcSolver {
    max_iterations: usize,
    v_abstol: f64,
    i_abstol: f64,
    gmin: f64,
    max_step: f64,
    nodesets: Vec<(NodeId, f64)>,
    hold_pins: bool,
}

impl Default for DcSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl DcSolver {
    /// Creates a solver with default tolerances (1 nV voltage, 1 pA
    /// current, gmin = 1 pS, 300 mV Newton step limit).
    #[must_use]
    pub fn new() -> Self {
        Self {
            max_iterations: 200,
            v_abstol: 1e-9,
            i_abstol: 1e-12,
            gmin: 1e-12,
            max_step: 0.3,
            nodesets: Vec::new(),
            hold_pins: false,
        }
    }

    /// Adds a nodeset hint: the first solve stage pulls `node` toward
    /// `volts` through a soft 1 mS conductance, selecting which stable
    /// state a bistable circuit converges to. The hint is released for the
    /// final solve, so the returned solution is a true operating point.
    #[must_use]
    pub fn nodeset(mut self, node: NodeId, volts: Voltage) -> Self {
        self.nodesets.push((node, volts.volts()));
        self
    }

    /// Keeps the nodeset pins applied in the *final* solve instead of
    /// releasing them: the returned solution is the circuit's state with
    /// the listed nodes forced (through stiff 1 S conductances) to their
    /// set voltages. Use this to start a transient from an enforced
    /// non-equilibrium state — e.g. a sense-amplifier latch preset to a
    /// small differential imbalance that the transient then regenerates.
    #[must_use]
    pub fn hold_pins(mut self) -> Self {
        self.hold_pins = true;
        self
    }

    /// Overrides the Newton iteration budget.
    #[must_use]
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Solves the DC operating point from a zero initial guess.
    ///
    /// # Errors
    ///
    /// [`SpiceError::NonConvergent`] when every homotopy fails;
    /// [`SpiceError::SingularMatrix`] for structurally defective netlists.
    pub fn solve(&self, circuit: &Circuit) -> Result<DcSolution, SpiceError> {
        let guess = vec![0.0; circuit.unknown_count()];
        self.solve_with_guess(circuit, &guess)
    }

    /// Solves the DC operating point warm-started from `guess` (a previous
    /// solution's [`DcSolution::as_vector`] — the backbone of DC sweeps).
    ///
    /// # Errors
    ///
    /// Same as [`DcSolver::solve`].
    pub fn solve_with_guess(
        &self,
        circuit: &Circuit,
        guess: &[f64],
    ) -> Result<DcSolution, SpiceError> {
        let _trace = sram_probe::trace_span!("spice.dc_solve");
        self.solve_untraced(circuit, guess)
    }

    /// [`DcSolver::solve_with_guess`] without its trace span: a
    /// [`crate::DcSweep`] records one span for all of its points. The
    /// solve is still counted and timed.
    pub(crate) fn solve_untraced(
        &self,
        circuit: &Circuit,
        guess: &[f64],
    ) -> Result<DcSolution, SpiceError> {
        check_guess(circuit, guess)?;
        sram_probe::probe_inc!("spice.dc_solves");
        let _span = sram_probe::probe_span!("spice.dc_solve_ns");
        // Chaos hook: a plan rule for `spice.nonconverge` makes this solve
        // fail exactly as a real homotopy breakdown would, so the layers
        // above prove their retry/degradation paths against the same error
        // they see in production.
        if sram_faults::should_fire("spice.nonconverge") {
            sram_probe::probe_inc!("spice.dc_nonconvergent");
            return Err(SpiceError::NonConvergent {
                analysis: "dc (injected)",
                iterations: 0,
            });
        }
        let mut x = guess.to_vec();

        // Hard-pinned mode: solve once with stiff pins and return that
        // forced state directly (no release).
        if self.hold_pins && !self.nodesets.is_empty() {
            self.newton(circuit, &mut x, self.gmin, 1.0, Some(1.0))
                .map_err(|_| {
                    sram_probe::probe_inc!("spice.dc_nonconvergent");
                    SpiceError::NonConvergent {
                        analysis: "dc (pinned)",
                        iterations: self.max_iterations,
                    }
                })?;
            return Ok(DcSolution::new(x, circuit.node_count()));
        }

        // Stage 0: nodeset-biased pre-solve with gradual pin release.
        // A hard pin followed by an abrupt release can drop a bistable
        // circuit onto its metastable point; weakening the pin decade by
        // decade tracks the solution continuously into the intended
        // basin.
        if !self.nodesets.is_empty() {
            for g_pin in [1e-2, 1e-4, 1e-6, 1e-8] {
                let _ = self.newton(circuit, &mut x, self.gmin, 1.0, Some(g_pin));
            }
        }

        // Stage 1: plain Newton.
        if self.newton(circuit, &mut x, self.gmin, 1.0, None).is_ok() {
            return Ok(DcSolution::new(x, circuit.node_count()));
        }

        // Stage 2: gmin stepping.
        let mut x2 = guess.to_vec();
        let mut ok = true;
        let mut g = 1e-3;
        while g >= self.gmin {
            if self.newton(circuit, &mut x2, g, 1.0, None).is_err() {
                ok = false;
                break;
            }
            g /= 10.0;
        }
        if ok && self.newton(circuit, &mut x2, self.gmin, 1.0, None).is_ok() {
            return Ok(DcSolution::new(x2, circuit.node_count()));
        }

        // Stage 3: source stepping.
        let mut x3 = vec![0.0; circuit.unknown_count()];
        let steps = 20;
        for k in 1..=steps {
            let scale = f64::from(k) / f64::from(steps);
            self.newton(circuit, &mut x3, self.gmin, scale, None)
                .map_err(|_| {
                    sram_probe::probe_inc!("spice.dc_nonconvergent");
                    SpiceError::NonConvergent {
                        analysis: "dc",
                        iterations: self.max_iterations,
                    }
                })?;
        }
        Ok(DcSolution::new(x3, circuit.node_count()))
    }

    /// One continuation step: plain Newton warm-started from `from`, an
    /// operating point of the same netlist with a source moved a little.
    /// No nodeset stage and no gmin or source stepping run, so the
    /// solution stays on the branch `from` lies on, or the step fails
    /// and the caller shortens it.
    ///
    /// The solve is counted and timed like any other, but records no
    /// trace span (the caller's search records one). A failed step is
    /// an answer of that search, not a failed analysis: it draws no
    /// `spice.nonconverge` fault and does not count as
    /// `spice.dc_nonconvergent`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::NonConvergent`] when Newton does not converge within
    /// the iteration budget; [`SpiceError::SingularMatrix`] when a
    /// Jacobian has no usable pivot; [`SpiceError::InvalidAnalysis`] when
    /// `from` does not belong to a netlist of `circuit`'s shape.
    pub fn continue_from(
        &self,
        circuit: &Circuit,
        from: &DcSolution,
    ) -> Result<DcSolution, SpiceError> {
        check_guess(circuit, &from.x)?;
        sram_probe::probe_inc!("spice.dc_solves");
        let _span = sram_probe::probe_span!("spice.dc_solve_ns");
        let mut x = from.x.clone();
        self.newton(circuit, &mut x, self.gmin, 1.0, None)?;
        Ok(DcSolution::new(x, circuit.node_count()))
    }

    /// One Newton solve at fixed gmin/source scale. `pin` optionally adds
    /// the nodeset conductance (in siemens).
    fn newton(
        &self,
        circuit: &Circuit,
        x: &mut [f64],
        gmin: f64,
        source_scale: f64,
        pin: Option<f64>,
    ) -> Result<(), SpiceError> {
        let n = circuit.unknown_count();
        let mut jacobian = Matrix::zeros(n);
        let mut residual = vec![0.0; n];
        let ix = Indexer::new(circuit);
        let options = AssemblyOptions {
            gmin,
            source_scale,
            time: 0.0,
            integration: Integration::Dc,
        };
        for iter in 0..self.max_iterations {
            assemble(circuit, x, options, None, &mut jacobian, &mut residual)?;
            if let Some(g_pin) = pin {
                for &(node, volts) in &self.nodesets {
                    if let Some(i) = ix.node(node) {
                        jacobian.add(i, i, g_pin);
                        residual[i] += g_pin * (x[i] - volts);
                    }
                }
            }
            // Solve J dx = -F.
            let mut delta: Vec<f64> = residual.iter().map(|r| -r).collect();
            jacobian.solve_in_place(&mut delta)?;

            // Voltage step limiting for robustness on exponential devices.
            let n_node_unknowns = circuit.node_count() - 1;
            let mut max_dv: f64 = 0.0;
            let mut max_di: f64 = 0.0;
            for (i, d) in delta.iter_mut().enumerate() {
                if i < n_node_unknowns {
                    if d.abs() > self.max_step {
                        *d = self.max_step * d.signum();
                    }
                    max_dv = max_dv.max(d.abs());
                } else {
                    max_di = max_di.max(d.abs());
                }
                x[i] += *d;
            }
            if max_dv < self.v_abstol && max_di < self.i_abstol {
                sram_probe::probe_add!("spice.newton_iterations", iter as u64 + 1);
                sram_probe::probe_record!(detail "spice.newton_iters_per_solve", iter as u64 + 1);
                return Ok(());
            }
        }
        sram_probe::probe_add!("spice.newton_iterations", self.max_iterations as u64);
        sram_probe::probe_record!(detail "spice.newton_iters_per_solve", self.max_iterations as u64);
        Err(SpiceError::NonConvergent {
            analysis: "dc",
            iterations: self.max_iterations,
        })
    }
}

/// Rejects a starting vector that does not fit `circuit`'s unknowns.
fn check_guess(circuit: &Circuit, guess: &[f64]) -> Result<(), SpiceError> {
    if guess.len() == circuit.unknown_count() {
        return Ok(());
    }
    Err(SpiceError::InvalidAnalysis(format!(
        "guess length {} does not match unknown count {}",
        guess.len(),
        circuit.unknown_count()
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Waveform;
    use sram_device::{DeviceLibrary, FinFet, VtFlavor};

    #[test]
    fn resistive_divider() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let mid = ckt.node("mid");
        ckt.vsource("V1", vin, Circuit::GROUND, Waveform::Dc(1.0));
        ckt.resistor("R1", vin, mid, 1.0e3);
        ckt.resistor("R2", mid, Circuit::GROUND, 3.0e3);
        let sol = DcSolver::new().solve(&ckt).unwrap();
        assert!((sol.voltage(mid).volts() - 0.75).abs() < 1e-9);
        // Current into + terminal is negative: source delivers power.
        let i = sol.source_current(&ckt, "V1").unwrap();
        // The gmin shunts leak a few pA; allow for that.
        assert!((i.amps() + 1.0 / 4.0e3).abs() < 1e-10);
    }

    #[test]
    fn inverter_output_rails() {
        let lib = DeviceLibrary::sevennm();
        let vdd = 0.45;
        let mut ckt = Circuit::new();
        let n_vdd = ckt.node("vdd");
        let n_in = ckt.node("in");
        let n_out = ckt.node("out");
        ckt.vsource("Vdd", n_vdd, Circuit::GROUND, Waveform::Dc(vdd));
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

        // Input low -> output high.
        let sol = DcSolver::new().solve(&ckt).unwrap();
        assert!(
            sol.voltage(n_out).volts() > 0.44,
            "out = {}",
            sol.voltage(n_out)
        );

        // Input high -> output low.
        ckt.set_source_voltage("Vin", Voltage::from_volts(vdd))
            .unwrap();
        let sol = DcSolver::new().solve(&ckt).unwrap();
        assert!(
            sol.voltage(n_out).volts() < 0.01,
            "out = {}",
            sol.voltage(n_out)
        );
    }

    #[test]
    fn bistable_latch_respects_nodeset() {
        // Cross-coupled inverters; nodeset selects the stable state.
        let lib = DeviceLibrary::sevennm();
        let vdd = 0.45;
        let mut ckt = Circuit::new();
        let n_vdd = ckt.node("vdd");
        let q = ckt.node("q");
        let qb = ckt.node("qb");
        ckt.vsource("Vdd", n_vdd, Circuit::GROUND, Waveform::Dc(vdd));
        for (name, input, output) in [("l", qb, q), ("r", q, qb)] {
            ckt.fet(
                &format!("MP{name}"),
                input,
                output,
                n_vdd,
                FinFet::new(lib.pfet(VtFlavor::Hvt).clone(), 1),
            );
            ckt.fet(
                &format!("MN{name}"),
                input,
                output,
                Circuit::GROUND,
                FinFet::new(lib.nfet(VtFlavor::Hvt).clone(), 1),
            );
        }
        let sol0 = DcSolver::new()
            .nodeset(q, Voltage::ZERO)
            .nodeset(qb, Voltage::from_volts(vdd))
            .solve(&ckt)
            .unwrap();
        assert!(sol0.voltage(q).volts() < 0.05);
        assert!(sol0.voltage(qb).volts() > 0.40);

        let sol1 = DcSolver::new()
            .nodeset(q, Voltage::from_volts(vdd))
            .nodeset(qb, Voltage::ZERO)
            .solve(&ckt)
            .unwrap();
        assert!(sol1.voltage(q).volts() > 0.40);
        assert!(sol1.voltage(qb).volts() < 0.05);
    }

    #[test]
    fn continuation_steps_from_a_neighbouring_solution() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let mid = ckt.node("mid");
        ckt.vsource("V1", a, Circuit::GROUND, Waveform::Dc(1.0));
        ckt.resistor("R1", a, mid, 1.0e3);
        ckt.resistor("R2", mid, Circuit::GROUND, 3.0e3);
        let start = DcSolver::new().solve(&ckt).unwrap();
        ckt.set_source_voltage("V1", Voltage::from_volts(1.2))
            .unwrap();
        let step = DcSolver::new().continue_from(&ckt, &start).unwrap();
        assert!((step.voltage(mid).volts() - 0.9).abs() < 1e-9);

        let mut other = Circuit::new();
        let b = other.node("b");
        other.vsource("V", b, Circuit::GROUND, Waveform::Dc(1.0));
        let err = DcSolver::new().continue_from(&other, &start).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidAnalysis(_)));
    }

    #[test]
    fn bad_guess_length_is_reported() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V", a, Circuit::GROUND, Waveform::Dc(1.0));
        ckt.resistor("R", a, Circuit::GROUND, 1.0);
        let err = DcSolver::new().solve_with_guess(&ckt, &[0.0]).unwrap_err();
        assert!(matches!(err, SpiceError::InvalidAnalysis(_)));
    }

    #[test]
    fn floating_node_gives_singular_or_gmin_solution() {
        // A node connected only through a capacitor is floating in DC;
        // the gmin shunt keeps the matrix solvable and parks it at 0 V.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("V", a, Circuit::GROUND, Waveform::Dc(1.0));
        ckt.capacitor("C", a, b, 1e-15);
        let sol = DcSolver::new().solve(&ckt).unwrap();
        assert!(sol.voltage(b).volts().abs() < 1e-6);
    }
}
