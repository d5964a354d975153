//! The device-circuit-architecture co-optimization framework — the
//! paper's primary contribution.
//!
//! Given a memory capacity `M`, the framework finds the array design
//! minimizing the energy-delay product subject to yield constraints:
//!
//! * **device layer** — choose the cell flavor (LVT vs. HVT FinFETs) via
//!   the corresponding [`sram_cell::CellCharacterization`];
//! * **circuit layer** — pin `V_DDC` and `V_WL` at the minimum levels
//!   meeting the RSNM and WM yield requirements (Section 5's argument:
//!   raising either only costs energy), then sweep the negative-Gnd level
//!   `V_SSC`;
//! * **architecture layer** — sweep the organization `n_r × n_c`, the
//!   precharger fins `N_pre` and the write-buffer fins `N_wr`.
//!
//! The search space (`V_SSC ∈ {0,−10,…,−240 mV}`, `n_r ∈ {2¹…2¹⁰}`,
//! `N_pre ∈ {1…50}`, `N_wr ∈ {1…20}`) is small enough for **exhaustive
//! search** ([`Search::run`], which returns the exhaustive optimum while
//! skipping what slice lower bounds rule out), evaluated through the
//! `sram-array` look-up-table model. The same [`Search`] builds the
//! energy-delay Pareto front by the same best-first walk, and walks the
//! space by coordinate descent.
//!
//! Two rail-count policies are modeled (Section 5): **M1** — one extra
//! voltage rail, set to `max(V_DDC, V_WL)`, no negative rail; **M2** —
//! unrestricted rails, enabling the negative-Gnd assist.
//!
//! # Examples
//!
//! ```
//! use sram_array::Capacity;
//! use sram_coopt::{CoOptimizationFramework, Method};
//! use sram_device::VtFlavor;
//!
//! # fn main() -> Result<(), sram_coopt::CooptError> {
//! let mut framework = CoOptimizationFramework::paper_mode();
//! let design = framework.optimize(
//!     Capacity::from_bytes(4096),
//!     VtFlavor::Hvt,
//!     Method::M2,
//! )?;
//! assert!(design.vssc.volts() < 0.0); // M2 exploits negative Gnd
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

mod banking;
mod constraint;
mod error;
mod framework;
mod heuristic;
mod objective;
mod pareto;
mod rails;
mod report;
mod result;
mod search;
mod space;
mod standby;

pub use banking::{evaluate_bank_count, optimize_banked, BankedDesign};
pub use constraint::YieldConstraint;
pub use error::CooptError;
pub use framework::{CharacterizationMode, CoOptimizationFramework};
pub use objective::{DelayOnly, EnergyDelayProduct, EnergyDelaySquared, EnergyOnly, Objective};
pub use pareto::{ParetoFront, ParetoPoint};
pub use rails::{Method, RailSelection};
pub use report::{csv_table, format_table4};
pub use result::{OptimalDesign, SearchStatistics};
pub use search::{DesignPoint, Search, SearchOutcome};
pub use space::DesignSpace;
pub use standby::{optimize_standby, StandbyPolicy};
