//! 6T SRAM cell characterization on top of the `sram-spice` simulator.
//!
//! The paper's Sections 2–3 characterize the all-single-fin 6T cell —
//! built from LVT or HVT FinFETs — under read/write **assist techniques**:
//!
//! * hold and read static noise margins (HSNM / RSNM) from butterfly
//!   curves via the Seevinck maximum-square method,
//! * write margin (WM) and cell-level write delay,
//! * cell read current `I_read` (and its `b·(V_DDC − V_SSC − Vt)^a`
//!   power-law fit),
//! * cell leakage power under voltage scaling,
//! * Monte Carlo yield analysis over random Vt variation (the `μ − kσ`
//!   constraint the paper sketches as the "accurate way").
//!
//! Everything is *measured by circuit simulation* of the actual 6T
//! netlist, exactly as the paper does with SPICE; the
//! [`CellCharacterization`] look-up tables mirror the paper's "stored in
//! look-up tables" workflow so the array model and the optimizer never
//! re-simulate inside the search loop.
//!
//! # Examples
//!
//! ```no_run
//! use sram_cell::{AssistVoltages, CellCharacterizer};
//! use sram_device::{DeviceLibrary, VtFlavor};
//! use sram_units::Voltage;
//!
//! # fn main() -> Result<(), sram_cell::CellError> {
//! let lib = DeviceLibrary::sevennm();
//! let chr = CellCharacterizer::new(&lib, VtFlavor::Hvt);
//!
//! // RSNM with Vdd-boost + negative-Gnd assists applied:
//! let bias = AssistVoltages::nominal(lib.nominal_vdd())
//!     .with_vddc(Voltage::from_millivolts(550.0))
//!     .with_vssc(Voltage::from_millivolts(-100.0));
//! let rsnm = chr.read_snm(&bias)?;
//! assert!(rsnm.volts() > 0.0);
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

mod assist;
mod butterfly;
mod cell;
mod characterize;
mod error;
mod leakage;
mod lut;
mod montecarlo;
mod read;
mod snapshot;
mod write;

pub use assist::AssistVoltages;
pub use butterfly::{butterfly_snm, Vtc};
pub use cell::{CellNodes, Sram6t, VtcHalf, VtcMode};
pub use characterize::CellCharacterizer;
pub use error::CellError;
pub use lut::Lut1d;
pub use montecarlo::{MarginKind, MarginStats, MonteCarloConfig, YieldAnalysis, YieldAnalyzer};
pub use read::ReadCurrentFit;
pub use snapshot::{CellCharacterization, CharacterizationGrid};
