//! Analytical SRAM array delay/energy model (paper Section 4).
//!
//! Implements the paper's array model verbatim, with assist-technique
//! awareness:
//!
//! * **Table 1** — interconnect capacitances `C_CVDD`, `C_CVSS`, `C_WL`,
//!   `C_COL`, `C_BL` from the cell layout geometry (`C_width =
//!   5·P_Metal·C_w`, `C_height = 0.4·C_width`) and device terminal
//!   capacitances ([`WireCapacitances`]);
//! * **Table 2** — the `C/V/ΔV/I` quadruples of every interconnect
//!   component, evaluated through Eq. (1): `D = C·ΔV/I`,
//!   `E_sw = C·V·ΔV` ([`components`]);
//! * **Table 3** — read/write delay and switching-energy composition,
//!   including decoder, driver (a 4-stage superbuffer, sized by logical
//!   effort and spice-verified), sense amplifier and cell-write terms
//!   ([`ArrayModel`]);
//! * **Equations (2)–(5)** — `D_array = max(D_rd, D_wr)`, the α/β access
//!   mix, and the leakage energy `M · P_leak · D_array`.
//!
//! The cell-dependent quantities (`I_read`, `P_leak,sram`,
//! `D_write_sram(V_WL)`) come from a [`sram_cell::CellCharacterization`]
//! look-up table, so evaluating a design point is pure arithmetic — the
//! property that makes the exhaustive co-optimization search of `sram-coopt`
//! finish in seconds.
//!
//! # Examples
//!
//! ```
//! use sram_array::{ArrayModel, ArrayOrganization, ArrayParams, Periphery};
//! use sram_cell::CellCharacterization;
//! use sram_device::DeviceLibrary;
//! use sram_units::Voltage;
//!
//! # fn main() -> Result<(), sram_array::ArrayError> {
//! let lib = DeviceLibrary::sevennm();
//! let cell = CellCharacterization::paper_hvt(lib.nominal_vdd());
//! let periphery = Periphery::new(&lib);
//! let params = ArrayParams::paper_defaults();
//!
//! let org = ArrayOrganization::new(512, 64, 64)?; // 4 KB array
//! let model = ArrayModel::new(org, &cell, &periphery, &params)
//!     .with_precharge_fins(25)
//!     .with_write_fins(3)
//!     .with_vssc(Voltage::from_millivolts(-240.0));
//! let metrics = model.evaluate()?;
//! assert!(metrics.delay.seconds() > 0.0);
//! assert!(metrics.edp().joule_seconds() > 0.0);
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

pub mod components;
mod decoder;
mod driver;
mod error;
mod model;
mod organization;
mod periphery;
mod senseamp;
mod technology;
mod wire;
mod workload;

pub use decoder::DecoderModel;
pub use driver::Superbuffer;
pub use error::ArrayError;
pub use model::{
    ArrayMetrics, ArrayModel, ArrayParams, ArraySlice, DelayBreakdown, EnergyAccounting,
    EnergyBreakdown, SliceColumns,
};
pub use organization::{ArrayOrganization, Capacity};
pub use periphery::Periphery;
pub use senseamp::SenseAmp;
pub use technology::TechnologyParams;
pub use wire::WireCapacitances;
pub use workload::{Access, AccessTrace};
