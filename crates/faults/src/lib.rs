//! # sram-faults — deterministic fault injection and cooperative cancellation
//!
//! Std-only, like the rest of the workspace. Two halves:
//!
//! 1. **Fault injection.** A [`FaultPlan`] names injection points
//!    (`spice.nonconverge`, `cell.characterize_nan`, `cell.slow`,
//!    `serve.worker_panic`, `serve.conn_drop`, `serve.node_kill`),
//!    each with a firing
//!    probability, an optional injected latency, and an optional cap on
//!    total fires. Installing a plan ([`install`]) arms the
//!    process-wide registry; hardened
//!    call sites then ask [`should_fire`] / [`maybe_sleep`] at their named
//!    point. Every point draws from its own PRNG stream seeded
//!    `plan.seed ^ fnv1a64(point)` ([`sram_probe::hash`]), so the
//!    fire/no-fire sequence at a point depends only on the plan — never
//!    on thread interleaving or on how draws at *other* points are
//!    ordered — and runs replay bit-identically.
//!    With no plan installed, the fast path is a single relaxed atomic load.
//!
//! 2. **Cancellation.** A [`CancelToken`] carries a deadline and a shared
//!    shutdown flag. It is plumbed from the serve layer through
//!    `optimize_with_cell` into the exhaustive-search slice loop and the
//!    Monte Carlo sample loop, which poll it cooperatively — an expired
//!    deadline aborts a sweep mid-flight with a typed error instead of
//!    running to completion. [`ordered_map`] runs such a per-item loop
//!    on scoped workers, one per core, polling the token before each
//!    item and returning results (or the serial loop's error) in input
//!    order.
//!
//! The crate sits below `serve`, `core`, `cell`, and `spice` in the
//! dependency graph (it depends only on `sram-probe` and the vendored
//! `rand`), so every layer can share the same token and registry.

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

mod cancel;
mod plan;
mod registry;

pub use cancel::{ordered_map, CancelReason, CancelToken};
pub use plan::{FaultPlan, FaultRule};
pub use registry::{
    counts, enabled, injected_total, install, maybe_sleep, should_fire, uninstall, ActiveSet,
};
