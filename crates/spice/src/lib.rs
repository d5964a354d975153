//! A small SPICE-like circuit simulator for SRAM characterization.
//!
//! The paper measures noise margins, write margins, read currents, cell
//! write delays, and peripheral-circuit delays/energies "by SPICE
//! simulations". No circuit-simulation ecosystem exists in Rust, so this
//! crate implements the required subset from scratch:
//!
//! * **Netlists** ([`Circuit`]) of resistors, capacitors, independent
//!   voltage/current sources (DC, pulse, PWL waveforms), and FinFETs from
//!   [`sram_device`];
//! * **Modified nodal analysis** with voltage-source branch currents as
//!   extra unknowns, dense LU factorization (circuits here are tiny —
//!   a 6T cell plus periphery is ~15 unknowns);
//! * **Nonlinear DC operating point** via Newton-Raphson with `gmin` and
//!   source-stepping homotopies for robustness on bistable cells;
//! * **DC sweeps** with warm starting (butterfly curves, I-V extraction);
//! * **Transient analysis** (backward-Euler startup, trapezoidal steps,
//!   Newton inner loop, step-halving on non-convergence) with
//!   [`measure::Trace`] post-processing for delay measurements.
//!
//! # Examples
//!
//! A resistive divider:
//!
//! ```
//! use sram_spice::{Circuit, DcSolver, Waveform};
//! use sram_units::Voltage;
//!
//! # fn main() -> Result<(), sram_spice::SpiceError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let mid = ckt.node("mid");
//! ckt.vsource("V1", vin, Circuit::GROUND, Waveform::dc(Voltage::from_volts(1.0)));
//! ckt.resistor("R1", vin, mid, 1.0e3);
//! ckt.resistor("R2", mid, Circuit::GROUND, 3.0e3);
//!
//! let solution = DcSolver::new().solve(&ckt)?;
//! assert!((solution.voltage(mid).volts() - 0.75).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp
    )
)]

mod circuit;
mod dc;
mod elements;
mod error;
mod linalg;
pub mod measure;
mod mna;
mod sweep;
mod transient;

pub use circuit::{Circuit, ElementId, NodeId};
pub use dc::{DcSolution, DcSolver};
pub use elements::{Element, Waveform};
pub use error::SpiceError;
pub use measure::{CrossingEdge, Trace};
pub use sweep::{DcSweep, SweepPoint};
pub use transient::{Transient, TransientResult};
