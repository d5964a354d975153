//! 7 nm FinFET compact device models for SRAM co-optimization.
//!
//! This crate is the **device layer** of the DAC'16 reproduction. The paper
//! uses a proprietary 7 nm FinFET library (Chen et al., S3S'14) with a
//! nominal supply of 450 mV and two threshold flavors:
//!
//! * **LVT** — low threshold voltage, used for all peripheral circuits;
//! * **HVT** — high threshold voltage, candidate for the 6T cell: ~2× lower
//!   ON current, ~20× lower OFF current, ~10× higher ION/IOFF ratio.
//!
//! Since that library is not available, this crate provides an analytical
//! compact model — a smoothed α-power law with an exponential subthreshold
//! region (EKV-style interpolation) — calibrated against every anchor the
//! paper publishes (see [`params`] and DESIGN.md §5):
//!
//! * read-current fit exponent `a = 1.3` and HVT `Vt = 335 mV`,
//! * ION(LVT) ≈ 2 × ION(HVT) at `Vgs = Vds = 450 mV`,
//! * IOFF(LVT) ≈ 20 × IOFF(HVT),
//! * 6T cell leakage 1.692 nW (LVT) / 0.082 nW (HVT) at 450 mV.
//!
//! The model respects FinFET **width quantization**: drive strength scales
//! only by the integer fin count ([`FinFet::fins`]), never continuously.
//!
//! # Examples
//!
//! ```
//! use sram_device::{DeviceLibrary, FinFet, VtFlavor};
//! use sram_units::Voltage;
//!
//! let lib = DeviceLibrary::sevennm();
//! let hvt = FinFet::new(lib.nfet(VtFlavor::Hvt).clone(), 1);
//! let lvt = FinFet::new(lib.nfet(VtFlavor::Lvt).clone(), 1);
//!
//! let vdd = Voltage::from_millivolts(450.0);
//! let ratio = lvt.ids(vdd, vdd).amps() / hvt.ids(vdd, vdd).amps();
//! assert!(ratio > 1.5 && ratio < 2.5); // LVT drives ~2x harder
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

mod error;
mod finfet;
mod iv;
mod library;
pub mod params;
mod variation;

pub use error::DeviceError;
pub use finfet::{FinFet, Polarity, VtFlavor};
pub use iv::IvModel;
pub use library::DeviceLibrary;
pub use params::DeviceParams;
pub use variation::{VariationModel, VtSampler};
