//! Modified-nodal-analysis assembly.
//!
//! Unknown ordering: node voltages for nodes `1..n` (ground excluded),
//! followed by one branch current per voltage source. The residual is the
//! KCL current *leaving* each node (plus the source-branch voltage
//! constraints); Newton solves `J Δx = −F`.

use crate::circuit::Circuit;
use crate::elements::Element;
use crate::linalg::Matrix;
use crate::SpiceError;
use sram_units::Voltage;

/// Companion-model configuration for capacitors during transient steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Integration {
    /// DC analysis: capacitors are open circuits.
    Dc,
    /// Backward Euler with step `h`: `i = C/h (v − v_prev)`.
    BackwardEuler {
        /// Timestep in seconds.
        h: f64,
    },
    /// Trapezoidal with step `h`: `i = 2C/h (v − v_prev) − i_prev`.
    Trapezoidal {
        /// Timestep in seconds.
        h: f64,
    },
}

/// Per-capacitor dynamic state carried between transient steps.
#[derive(Debug, Clone, Default)]
pub(crate) struct CapState {
    /// Previous across-voltage per capacitor element index.
    pub(crate) v_prev: Vec<f64>,
    /// Previous through-current per capacitor element index.
    pub(crate) i_prev: Vec<f64>,
}

/// Assembly context for one Newton iteration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AssemblyOptions {
    /// Shunt conductance from every node to ground (homotopy aid).
    pub(crate) gmin: f64,
    /// Scale factor on all independent sources (source stepping).
    pub(crate) source_scale: f64,
    /// Simulation time (selects waveform values).
    pub(crate) time: f64,
    /// Capacitor treatment.
    pub(crate) integration: Integration,
}

impl Default for AssemblyOptions {
    fn default() -> Self {
        Self {
            gmin: 1e-12,
            source_scale: 1.0,
            time: 0.0,
            integration: Integration::Dc,
        }
    }
}

/// Maps circuit topology to unknown indices.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Indexer {
    n_nodes: usize,
}

impl Indexer {
    pub(crate) fn new(circuit: &Circuit) -> Self {
        Self {
            n_nodes: circuit.node_count(),
        }
    }

    /// Index of a node voltage in the unknown vector, `None` for ground.
    #[inline]
    pub(crate) fn node(&self, node: crate::NodeId) -> Option<usize> {
        let i = node.index();
        if i == 0 {
            None
        } else {
            Some(i - 1)
        }
    }

    /// Index of a voltage-source branch current.
    #[inline]
    pub(crate) fn branch(&self, branch: usize) -> usize {
        self.n_nodes - 1 + branch
    }

    /// Voltage of a node under the solution vector `x`.
    #[inline]
    pub(crate) fn voltage(&self, x: &[f64], node: crate::NodeId) -> f64 {
        match self.node(node) {
            None => 0.0,
            Some(i) => x[i],
        }
    }
}

/// Assembles the Jacobian and residual of the MNA system at solution `x`.
///
/// `cap_state` must contain one entry per capacitor element (in element
/// order) when `options.integration` is not [`Integration::Dc`].
///
/// # Errors
///
/// [`SpiceError::InvalidAnalysis`] when a transient integration method is
/// selected but `cap_state` is `None` — a misconfigured analysis must not
/// abort a long search run.
pub(crate) fn assemble(
    circuit: &Circuit,
    x: &[f64],
    options: AssemblyOptions,
    cap_state: Option<&CapState>,
    jacobian: &mut Matrix,
    residual: &mut [f64],
) -> Result<(), SpiceError> {
    debug_assert_eq!(jacobian.dim(), circuit.unknown_count());
    debug_assert_eq!(residual.len(), circuit.unknown_count());
    if cap_state.is_none() && options.integration != Integration::Dc {
        return Err(SpiceError::InvalidAnalysis(
            "transient integration requires capacitor state".into(),
        ));
    }
    jacobian.clear();
    residual.fill(0.0);

    let ix = Indexer::new(circuit);

    // gmin shunts keep the matrix non-singular when devices are fully off.
    for i in 0..(circuit.node_count() - 1) {
        jacobian.add(i, i, options.gmin);
        residual[i] += options.gmin * x[i];
    }

    let mut branch = 0usize;
    let mut cap_idx = 0usize;
    for named in &circuit.elements {
        match &named.element {
            Element::Resistor { a, b, ohms } => {
                let g = 1.0 / ohms;
                stamp_conductance(jacobian, residual, &ix, x, *a, *b, g);
            }
            Element::Capacitor { a, b, farads } => {
                // The guard above makes (non-DC, None) impossible; matching
                // on the pair keeps this arm total without a panic path.
                match (options.integration, cap_state) {
                    (Integration::Dc, _) | (_, None) => {}
                    (Integration::BackwardEuler { h }, Some(state)) => {
                        let geq = farads / h;
                        let v_prev = state.v_prev[cap_idx];
                        // i = geq*(v - v_prev): conductance geq plus history
                        // current source geq*v_prev from b to a.
                        stamp_conductance(jacobian, residual, &ix, x, *a, *b, geq);
                        stamp_current(residual, &ix, *a, *b, -geq * v_prev);
                    }
                    (Integration::Trapezoidal { h }, Some(state)) => {
                        let geq = 2.0 * farads / h;
                        let v_prev = state.v_prev[cap_idx];
                        let i_prev = state.i_prev[cap_idx];
                        stamp_conductance(jacobian, residual, &ix, x, *a, *b, geq);
                        stamp_current(residual, &ix, *a, *b, -(geq * v_prev + i_prev));
                    }
                }
                cap_idx += 1;
            }
            Element::VoltageSource { pos, neg, waveform } => {
                let value = waveform.value_at(options.time) * options.source_scale;
                let row = ix.branch(branch);
                let i_branch = x[row];
                // KCL: branch current leaves the positive node.
                if let Some(p) = ix.node(*pos) {
                    residual[p] += i_branch;
                    jacobian.add(p, row, 1.0);
                }
                if let Some(n) = ix.node(*neg) {
                    residual[n] -= i_branch;
                    jacobian.add(n, row, -1.0);
                }
                // Branch equation: v_pos - v_neg - V = 0.
                let vp = ix.voltage(x, *pos);
                let vn = ix.voltage(x, *neg);
                residual[row] = vp - vn - value;
                if let Some(p) = ix.node(*pos) {
                    jacobian.add(row, p, 1.0);
                }
                if let Some(n) = ix.node(*neg) {
                    jacobian.add(row, n, -1.0);
                }
                branch += 1;
            }
            Element::CurrentSource { from, to, amps } => {
                let i = amps.amps() * options.source_scale;
                stamp_current(residual, &ix, *from, *to, i);
            }
            Element::Fet {
                gate,
                drain,
                source,
                device,
            } => {
                let vg = Voltage::from_volts(ix.voltage(x, *gate));
                let vd = Voltage::from_volts(ix.voltage(x, *drain));
                let vs = Voltage::from_volts(ix.voltage(x, *source));
                let (id, [d_dg, d_dd, d_ds]) = device.current_into_drain_with_partials(vg, vd, vs);
                let id = id.amps();

                // Current enters the drain, leaves the source.
                if let Some(d) = ix.node(*drain) {
                    residual[d] += id;
                    if let Some(g) = ix.node(*gate) {
                        jacobian.add(d, g, d_dg);
                    }
                    jacobian.add(d, d, d_dd);
                    if let Some(s) = ix.node(*source) {
                        jacobian.add(d, s, d_ds);
                    }
                }
                if let Some(s) = ix.node(*source) {
                    residual[s] -= id;
                    if let Some(g) = ix.node(*gate) {
                        jacobian.add(s, g, -d_dg);
                    }
                    if let Some(d) = ix.node(*drain) {
                        jacobian.add(s, d, -d_dd);
                    }
                    jacobian.add(s, s, -d_ds);
                }
            }
        }
    }
    Ok(())
}

/// Stamps a linear conductance `g` between nodes `a` and `b` into the
/// Jacobian plus the corresponding `g·(va − vb)` term into the residual.
fn stamp_conductance(
    jacobian: &mut Matrix,
    residual: &mut [f64],
    ix: &Indexer,
    x: &[f64],
    a: crate::NodeId,
    b: crate::NodeId,
    g: f64,
) {
    let va = ix.voltage(x, a);
    let vb = ix.voltage(x, b);
    let i = g * (va - vb);
    if let Some(ia) = ix.node(a) {
        residual[ia] += i;
        jacobian.add(ia, ia, g);
        if let Some(ib) = ix.node(b) {
            jacobian.add(ia, ib, -g);
        }
    }
    if let Some(ib) = ix.node(b) {
        residual[ib] -= i;
        jacobian.add(ib, ib, g);
        if let Some(ia) = ix.node(a) {
            jacobian.add(ib, ia, -g);
        }
    }
}

/// Stamps a constant current `i` flowing from node `from` into node `to`.
fn stamp_current(
    residual: &mut [f64],
    ix: &Indexer,
    from: crate::NodeId,
    to: crate::NodeId,
    i: f64,
) {
    if let Some(f) = ix.node(from) {
        residual[f] += i;
    }
    if let Some(t) = ix.node(to) {
        residual[t] -= i;
    }
}

/// Computes the current through each capacitor for the accepted solution,
/// updating `state` for the next step.
pub(crate) fn update_cap_state(
    circuit: &Circuit,
    x: &[f64],
    integration: Integration,
    state: &mut CapState,
) {
    let ix = Indexer::new(circuit);
    let mut cap_idx = 0usize;
    for named in &circuit.elements {
        if let Element::Capacitor { a, b, farads } = &named.element {
            let v = ix.voltage(x, *a) - ix.voltage(x, *b);
            let i = match integration {
                Integration::Dc => 0.0,
                Integration::BackwardEuler { h } => farads / h * (v - state.v_prev[cap_idx]),
                Integration::Trapezoidal { h } => {
                    2.0 * farads / h * (v - state.v_prev[cap_idx]) - state.i_prev[cap_idx]
                }
            };
            state.v_prev[cap_idx] = v;
            state.i_prev[cap_idx] = i;
            cap_idx += 1;
        }
    }
}

/// Initializes capacitor state from a DC solution (zero current).
pub(crate) fn init_cap_state(circuit: &Circuit, x: &[f64]) -> CapState {
    let ix = Indexer::new(circuit);
    let mut state = CapState::default();
    for named in &circuit.elements {
        if let Element::Capacitor { a, b, .. } = &named.element {
            let v = ix.voltage(x, *a) - ix.voltage(x, *b);
            state.v_prev.push(v);
            state.i_prev.push(0.0);
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Circuit, Waveform};

    #[test]
    fn divider_residual_vanishes_at_solution() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let m = ckt.node("m");
        ckt.vsource("V", a, Circuit::GROUND, Waveform::Dc(1.0));
        ckt.resistor("R1", a, m, 1.0e3);
        ckt.resistor("R2", m, Circuit::GROUND, 1.0e3);

        // Exact solution: v_a = 1, v_m = 0.5, i_branch = -0.5 mA.
        let x = vec![1.0, 0.5, -0.5e-3];
        let mut jac = Matrix::zeros(3);
        let mut res = vec![0.0; 3];
        let opts = AssemblyOptions {
            gmin: 0.0,
            ..AssemblyOptions::default()
        };
        assemble(&ckt, &x, opts, None, &mut jac, &mut res).unwrap();
        for (i, r) in res.iter().enumerate() {
            assert!(r.abs() < 1e-12, "residual[{i}] = {r}");
        }
    }

    #[test]
    fn capacitor_is_open_in_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V", a, Circuit::GROUND, Waveform::Dc(1.0));
        ckt.capacitor("C", a, Circuit::GROUND, 1e-15);
        let x = vec![1.0, 0.0];
        let mut jac = Matrix::zeros(2);
        let mut res = vec![0.0; 2];
        let opts = AssemblyOptions {
            gmin: 0.0,
            ..AssemblyOptions::default()
        };
        assemble(&ckt, &x, opts, None, &mut jac, &mut res).unwrap();
        // Branch current unknown of 0 satisfies KCL exactly.
        assert!(res[0].abs() < 1e-15);
    }

    #[test]
    fn source_scale_scales_branch_equation() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.vsource("V", a, Circuit::GROUND, Waveform::Dc(2.0));
        ckt.resistor("R", a, Circuit::GROUND, 1.0);
        let x = vec![1.0, -1.0]; // consistent with half-scaled source
        let mut jac = Matrix::zeros(2);
        let mut res = vec![0.0; 2];
        let opts = AssemblyOptions {
            gmin: 0.0,
            source_scale: 0.5,
            ..AssemblyOptions::default()
        };
        assemble(&ckt, &x, opts, None, &mut jac, &mut res).unwrap();
        assert!(res[1].abs() < 1e-12, "branch eq: {}", res[1]);
    }
}
