//! `sram-edp` — device-circuit-architecture co-optimization of SRAM
//! arrays for minimum energy-delay product.
//!
//! A from-scratch Rust reproduction of *"Minimizing the Energy-Delay
//! Product of SRAM Arrays using a Device-Circuit-Architecture
//! Co-Optimization Framework"* (Shafaei, Afzali-Kusha, Pedram — DAC
//! 2016), including every substrate the paper relies on:
//!
//! * [`device`] — calibrated 7 nm FinFET compact models (LVT/HVT);
//! * [`spice`] — a small MNA circuit simulator (nonlinear DC, sweeps,
//!   transient) used to *measure* all cell figures of merit;
//! * [`cell`] — 6T SRAM cell characterization: butterfly-curve noise
//!   margins, write margin, read current, leakage, assist techniques,
//!   Monte Carlo yield;
//! * [`array`](mod@crate::array) — the paper's analytical array model (Tables 1–3,
//!   Eqs. (1)–(5)) with assist-aware components;
//! * [`coopt`] — the co-optimization framework: yield-pinned assist
//!   rails, M1/M2 rail policies, exhaustive (bound-and-prune) search
//!   over `V_SSC`, `n_r`, `N_pre`, `N_wr`;
//! * [`units`] — typed physical quantities underpinning all of it.
//!
//! # Quickstart
//!
//! ```
//! use sram_edp::array::Capacity;
//! use sram_edp::coopt::{CoOptimizationFramework, Method};
//! use sram_edp::device::VtFlavor;
//!
//! # fn main() -> Result<(), sram_edp::coopt::CooptError> {
//! let mut framework = CoOptimizationFramework::paper_mode();
//! let design = framework.optimize(
//!     Capacity::from_bytes(4096),
//!     VtFlavor::Hvt,
//!     Method::M2,
//! )?;
//! println!("{design}");
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for richer scenarios (cache sizing,
//! assist exploration, Monte Carlo yield) and the `reproduce` binary in
//! `sram-bench` for regenerating every figure and table of the paper.

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

pub use sram_array as array;
pub use sram_cell as cell;
pub use sram_coopt as coopt;
pub use sram_device as device;
pub use sram_spice as spice;
pub use sram_units as units;

/// Source rules the compiler does not check, as tests.
#[cfg(test)]
mod rules {
    mod dead_surface;
    mod unit_hygiene;
}
